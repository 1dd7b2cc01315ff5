package nn

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Loss returns the batch loss and writes ∂L/∂pred into grad (pred's
	// shape); defaults to MSELoss.
	Loss func(pred, target, grad *mat.Matrix) float64
	// ClipNorm, when positive, clips global gradient norm before each step.
	ClipNorm float64
	// OnEpoch, when set, is invoked with (epoch, meanLoss) after each epoch.
	OnEpoch func(epoch int, loss float64)
}

// Fit trains the network on (x, y) pairs with mini-batch gradient descent.
// It returns the mean loss of the final epoch. A step allocates nothing
// once the first batch has sized the buffers; when Fit returns, the
// network keeps its parameters and gradients but no training workspace.
func Fit(net *Network, x, y *mat.Matrix, cfg TrainConfig, g *rng.RNG) float64 {
	if x.Rows() != y.Rows() {
		panic(fmt.Sprintf("nn: Fit with %d inputs but %d targets", x.Rows(), y.Rows()))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 || cfg.BatchSize > x.Rows() {
		cfg.BatchSize = x.Rows()
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(1e-3)
	}
	if cfg.Loss == nil {
		cfg.Loss = MSELoss
	}
	defer net.release()

	st := newTrainStep(net, x, y, cfg)
	n := x.Rows()
	last := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := g.Perm(n)
		totalLoss, batches := 0.0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			totalLoss += st.step(perm[start:end])
			batches++
		}
		last = totalLoss / float64(batches)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, last)
		}
	}
	return last
}

// trainStep holds one Fit call's reusable state: the batch and
// loss-gradient buffers and the network's parameter list.
type trainStep struct {
	net        *Network
	x, y       *mat.Matrix
	cfg        TrainConfig
	params     []Param
	bx, by, dy mat.Matrix
}

func newTrainStep(net *Network, x, y *mat.Matrix, cfg TrainConfig) *trainStep {
	return &trainStep{net: net, x: x, y: y, cfg: cfg, params: net.Params()}
}

// step runs one optimizer step on the samples idx and returns the batch
// loss.
func (s *trainStep) step(idx []int) float64 {
	bx := s.bx.Reuse(len(idx), s.x.Cols())
	by := s.by.Reuse(len(idx), s.y.Cols())
	for i, k := range idx {
		bx.SetRow(i, s.x.RawRow(k))
		by.SetRow(i, s.y.RawRow(k))
	}
	for _, p := range s.params {
		p.Grad.ScaleInPlace(0)
	}
	pred := s.net.Forward(bx)
	l := s.cfg.Loss(pred, by, s.dy.Reuse(pred.Dims()))
	s.net.Backward(&s.dy)
	if s.cfg.ClipNorm > 0 {
		ClipGradients(s.params, s.cfg.ClipNorm)
	}
	s.cfg.Optimizer.Step(s.params)
	return l
}
