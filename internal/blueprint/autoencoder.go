package blueprint

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/nn"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// Autoencoder is the alternative Blueprint design the paper considers and
// rejects (§3.1): a neural bottleneck embedding of the datasheet features.
// It exists to make the PCA-vs-autoencoder trade-off measurable — PCA
// offers an intuitive size/loss knob and needs no training, while the
// autoencoder must be fit per dimension and costs more compute for
// comparable loss (the paper's stated reason for choosing PCA).
type Autoencoder struct {
	Dim     int
	encoder *nn.Network
	decoder *nn.Network
	means   []float64
	stds    []float64
}

// TrainAutoencoder fits an 18→hidden→dim→hidden→18 autoencoder on the
// standardized spec population.
func TrainAutoencoder(specs []hwspec.Spec, dim, hidden, epochs int, g *rng.RNG) (*Autoencoder, error) {
	if len(specs) < 2 {
		return nil, fmt.Errorf("blueprint: need ≥2 specs, got %d", len(specs))
	}
	if dim < 1 || dim > hwspec.FeatureDim {
		return nil, fmt.Errorf("blueprint: dim %d outside [1, %d]", dim, hwspec.FeatureDim)
	}
	if hidden <= 0 {
		hidden = 24
	}
	if epochs <= 0 {
		epochs = 3000
	}
	raw := mat.New(len(specs), hwspec.FeatureDim)
	for i, s := range specs {
		raw.SetRow(i, s.FeatureVector())
	}
	std, means, stds := mat.Standardize(raw)

	enc := nn.NewMLP([]int{hwspec.FeatureDim, hidden, dim}, nn.Tanh, g.Split("enc"))
	dec := nn.NewMLP([]int{dim, hidden, hwspec.FeatureDim}, nn.Tanh, g.Split("dec"))
	full := &nn.Network{Layers: append(append([]nn.Layer{}, enc.Layers...), dec.Layers...)}
	nn.Fit(full, std, std, nn.TrainConfig{
		Epochs:    epochs,
		BatchSize: 8,
		Optimizer: nn.NewAdam(3e-3),
		ClipNorm:  10,
	}, g.Split("fit"))

	return &Autoencoder{Dim: dim, encoder: enc, decoder: dec, means: means, stds: stds}, nil
}

// Embed compresses a spec through the encoder.
func (a *Autoencoder) Embed(spec hwspec.Spec) []float64 {
	raw := spec.FeatureVector()
	std := make([]float64, len(raw))
	for j, v := range raw {
		std[j] = v - a.means[j]
		if a.stds[j] > 1e-12 {
			std[j] /= a.stds[j]
		}
	}
	return a.encoder.Infer(std)
}

// InformationLossAE measures reconstruction RMSE in standardized units —
// directly comparable to InformationLoss for the PCA embedding.
func InformationLossAE(specs []hwspec.Spec, a *Autoencoder) float64 {
	orig := mat.New(len(specs), hwspec.FeatureDim)
	recon := mat.New(len(specs), hwspec.FeatureDim)
	for i, s := range specs {
		raw := s.FeatureVector()
		std := make([]float64, len(raw))
		for j, v := range raw {
			std[j] = v - a.means[j]
			if a.stds[j] > 1e-12 {
				std[j] /= a.stds[j]
			}
		}
		orig.SetRow(i, std)
		recon.SetRow(i, a.decoder.Infer(a.encoder.Infer(std)))
	}
	return mat.RMSE(orig, recon)
}
