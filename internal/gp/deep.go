package gp

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/nn"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// DeepRegressor approximates a deep Gaussian process the way the DGP
// baseline (Sun et al.) uses one for compilation transfer: a neural feature
// extractor is trained once on source-task measurements, and an exact GP is
// conditioned on the extracted features for each new target task. Transfer
// happens through the shared feature extractor.
type DeepRegressor struct {
	extractor *nn.Network
	trunk     *nn.Network // extractor without the final linear head
	gp        *Regressor
	featDim   int
}

// NewDeepRegressor builds the feature extractor: an MLP inDim→hidden→...→1
// whose final hidden layer (width featDim) becomes the GP input space.
func NewDeepRegressor(inDim, featDim int, g *rng.RNG) *DeepRegressor {
	net := nn.NewMLP([]int{inDim, 2 * featDim, featDim, 1}, nn.Tanh, g)
	return &DeepRegressor{extractor: net, featDim: featDim}
}

// PretrainSource trains the feature extractor end-to-end on source-task
// data (x, y). Call once before FitTarget.
func (d *DeepRegressor) PretrainSource(x [][]float64, y []float64, epochs int, g *rng.RNG) error {
	if err := checkDims(x, y); err != nil {
		return err
	}
	xm := mat.NewFromRows(x)
	ym := mat.New(len(y), 1)
	for i, v := range y {
		ym.Set(i, 0, v)
	}
	nn.Fit(d.extractor, xm, ym, nn.TrainConfig{
		Epochs:    epochs,
		BatchSize: 32,
		Optimizer: nn.NewAdam(5e-3),
		ClipNorm:  5,
	}, g)
	// The trunk is every layer but the final linear head.
	d.trunk = &nn.Network{Layers: d.extractor.Layers[:len(d.extractor.Layers)-1]}
	return nil
}

// features maps raw inputs through the trained trunk.
func (d *DeepRegressor) features(x [][]float64) ([][]float64, error) {
	if d.trunk == nil {
		return nil, fmt.Errorf("gp: DeepRegressor used before PretrainSource")
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = d.trunk.Infer(row)
	}
	return out, nil
}

// FitTarget conditions the GP head on target-task measurements.
func (d *DeepRegressor) FitTarget(x [][]float64, y []float64) error {
	feats, err := d.features(x)
	if err != nil {
		return err
	}
	gpr, err := FitWithGridSearch(feats, y, 1e-4)
	if err != nil {
		return err
	}
	d.gp = gpr
	return nil
}

// Predict returns the posterior mean and variance at q in raw input space.
func (d *DeepRegressor) Predict(q []float64) (mean, variance float64, err error) {
	if d.trunk == nil {
		return 0, 0, fmt.Errorf("gp: DeepRegressor used before PretrainSource")
	}
	if d.gp == nil {
		return 0, 0, fmt.Errorf("gp: DeepRegressor used before FitTarget")
	}
	m, v := d.gp.Predict(d.trunk.Infer(q))
	return m, v, nil
}
