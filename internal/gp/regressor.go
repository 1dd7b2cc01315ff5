package gp

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/mat"
)

// Regressor is an exact Gaussian-process regressor.
type Regressor struct {
	Kernel Matern52
	Noise  float64 // observation noise variance added to the diagonal

	x     [][]float64
	yMean float64
	alpha []float64   // K⁻¹(y - mean)
	chol  *mat.Matrix // Cholesky factor L of K + noise·I
}

// NewRegressor returns a GP with the given kernel and noise variance.
func NewRegressor(k Matern52, noise float64) *Regressor {
	return &Regressor{Kernel: k, Noise: clampNoise(noise)}
}

// clampNoise replaces a non-positive noise variance with a tiny one.
func clampNoise(noise float64) float64 {
	if noise <= 0 {
		return 1e-8
	}
	return noise
}

// fitWork is the storage one fit needs besides the factor it keeps: the
// centred targets and the Gram matrix. A grid search shares one across
// its grid points.
type fitWork struct {
	yMean    float64
	centered []float64
	gram     *mat.Matrix
	tmp      []float64 // forward-solve workspace for alpha
}

func newFitWork(x [][]float64, y []float64) *fitWork {
	n := len(x)
	w := &fitWork{yMean: mat.Mean(y), centered: make([]float64, n), gram: mat.New(n, n), tmp: make([]float64, n)}
	for i, v := range y {
		w.centered[i] = v - w.yMean
	}
	return w
}

// fit conditions r on x into its own chol and alpha buffers, which must
// be sized for len(x). Targets come centred from w.
func (r *Regressor) fit(x [][]float64, w *fitWork) error {
	gramInto(w.gram, r.Kernel, x, r.Noise)
	err := mat.CholeskyInto(r.chol, w.gram)
	if err != nil {
		// Add jitter progressively until the Gram matrix factors.
		jitter := r.Noise
		for attempt := 0; attempt < 8; attempt++ {
			jitter *= 10
			gramInto(w.gram, r.Kernel, x, jitter)
			if err = mat.CholeskyInto(r.chol, w.gram); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	r.x = x
	r.yMean = w.yMean
	mat.SolveCholeskyInto(r.chol, w.centered, w.tmp, r.alpha)
	return nil
}

// Fit conditions the GP on the training data. Targets are internally
// centred on their mean so the GP prior mean matches the data scale.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if err := checkDims(x, y); err != nil {
		return err
	}
	n := len(x)
	fitted := &Regressor{Kernel: r.Kernel, Noise: r.Noise, chol: mat.New(n, n), alpha: make([]float64, n)}
	if err := fitted.fit(x, newFitWork(x, y)); err != nil {
		return err
	}
	*r = *fitted
	return nil
}

// Fitted reports whether Fit has been called successfully.
func (r *Regressor) Fitted() bool { return r.chol != nil }

// Predict returns the posterior mean and variance at query point q. It is
// a one-lane PredictLanes and allocates its own scratch.
func (r *Regressor) Predict(q []float64) (mean, variance float64) {
	var m, v [1]float64
	r.PredictLanes([][]float64{q}, m[:], v[:], new(Scratch))
	return m[0], v[0]
}

// LogMarginalLikelihood returns log p(y | X, θ) for the fitted GP.
func (r *Regressor) LogMarginalLikelihood(y []float64) float64 {
	if !r.Fitted() {
		return math.Inf(-1)
	}
	centered := make([]float64, len(y))
	for i, v := range y {
		centered[i] = v - r.yMean
	}
	return r.lml(centered)
}

// lml is LogMarginalLikelihood on already-centred targets.
func (r *Regressor) lml(centered []float64) float64 {
	n := float64(len(centered))
	fit := -0.5 * mat.Dot(centered, r.alpha)
	complexity := -0.5 * mat.LogDetCholesky(r.chol)
	norm := -0.5 * n * math.Log(2*math.Pi)
	return fit + complexity + norm
}

// FitWithGridSearch fits a Matérn GP trying each (variance, lengthscale)
// pair on a log grid and keeping the hyperparameters with the highest
// marginal likelihood.
//
// The grid points share one Gram workspace and two factor buffers: each
// point factors into the spare buffer, and a new best swaps it with the
// kept one, so the grid makes no garbage beyond the model it returns.
func FitWithGridSearch(x [][]float64, y []float64, noise float64) (*Regressor, error) {
	if err := checkDims(x, y); err != nil {
		return nil, err
	}
	n := len(x)
	noise = clampNoise(noise)
	w := newFitWork(x, y)
	cur := &Regressor{chol: mat.New(n, n), alpha: make([]float64, n)}
	spare := &Regressor{chol: mat.New(n, n), alpha: make([]float64, n)}
	var best *Regressor
	bestLML := math.Inf(-1)
	for _, v := range []float64{0.1, 1, 10} {
		for _, s := range []float64{0.1, 0.3, 1, 3, 10} {
			cur.Kernel, cur.Noise = Matern52{Variance: v, LengthScale: s}, noise
			if err := cur.fit(x, w); err != nil {
				continue
			}
			if lml := cur.lml(w.centered); lml > bestLML {
				bestLML = lml
				best = cur
				cur, spare = spare, cur
			}
		}
	}
	if best == nil {
		// Every grid point failed to factor: fall back to a heavily
		// regularized default so callers still get a usable model.
		r := NewRegressor(Matern52{Variance: 1, LengthScale: 1}, 1e-2)
		if err := r.Fit(x, y); err != nil {
			return nil, err
		}
		return r, nil
	}
	return best, nil
}
