// Package gp implements exact Gaussian-process regression with a Matérn
// kernel, marginal-likelihood hyperparameter selection, and a deep-feature
// variant (GP over neural-network features) used to reproduce the DGP
// baseline (Sun et al., ICCV 2021) that Glimpse compares against.
package gp

import (
	"fmt"
	"math"

	"github.com/neuralcompile/glimpse/internal/mat"
)

// Matern52 is the Matérn ν=5/2 kernel, a common BO default: less smooth
// than the squared exponential, which suits rugged compilation search
// spaces.
type Matern52 struct {
	Variance    float64
	LengthScale float64
}

// Cov is the covariance of two points at squared distance d2, as
// mat.Dist2 computes it.
func (k Matern52) Cov(d2 float64) float64 {
	r := math.Sqrt(d2) / k.LengthScale
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// gramInto writes the symmetric kernel matrix K(X, X) + noise·I into out.
func gramInto(out *mat.Matrix, k Matern52, x [][]float64, noise float64) {
	n := len(x)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Cov(mat.Dist2(x[i], x[j]))
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
