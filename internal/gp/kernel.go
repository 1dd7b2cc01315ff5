// Package gp implements exact Gaussian-process regression with RBF and
// Matérn kernels, marginal-likelihood hyperparameter selection, and a
// deep-feature variant (GP over neural-network features) used to reproduce
// the DGP baseline (Sun et al., ICCV 2021) that Glimpse compares against.
package gp

import (
	"fmt"
	"math"

	"github.com/neuralcompile/glimpse/internal/mat"
)

// Kernel computes the covariance between two feature vectors.
type Kernel interface {
	Eval(a, b []float64) float64
	// Hyper returns the hyperparameters (for reporting) as name→value.
	Hyper() map[string]float64
}

// RBF is the squared-exponential kernel σ²·exp(-‖a-b‖²/(2ℓ²)).
type RBF struct {
	Variance    float64 // σ²
	LengthScale float64 // ℓ
}

// Eval computes the RBF covariance.
func (k RBF) Eval(a, b []float64) float64 {
	d2 := mat.Dist2(a, b)
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

// Hyper reports the kernel hyperparameters.
func (k RBF) Hyper() map[string]float64 {
	return map[string]float64{"variance": k.Variance, "length_scale": k.LengthScale}
}

// Matern52 is the Matérn ν=5/2 kernel, a common BO default: less smooth
// than RBF, which suits rugged compilation search spaces.
type Matern52 struct {
	Variance    float64
	LengthScale float64
}

// Eval computes the Matérn-5/2 covariance.
func (k Matern52) Eval(a, b []float64) float64 {
	r := math.Sqrt(mat.Dist2(a, b)) / k.LengthScale
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// Hyper reports the kernel hyperparameters.
func (k Matern52) Hyper() map[string]float64 {
	return map[string]float64{"variance": k.Variance, "length_scale": k.LengthScale}
}

// gramInto writes the symmetric kernel matrix K(X, X) + noise·I into out.
func gramInto(out *mat.Matrix, k Kernel, x [][]float64, noise float64) {
	n := len(x)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Eval(x[i], x[j])
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
		out.Set(i, i, out.At(i, i)+noise)
	}
}

func checkDims(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("gp: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("gp: %d inputs but %d targets", len(x), len(y))
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("gp: ragged input row %d (%d != %d)", i, len(row), d)
		}
	}
	return nil
}
