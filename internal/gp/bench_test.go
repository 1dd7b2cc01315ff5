package gp

import (
	"fmt"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// benchRows is the tuning loop's GP cap (core.capGPSet), and benchDims
// the conv2d feature width.
const benchRows, benchDims = 144, 20

func benchFit(b *testing.B) (*Regressor, *refModel, [][]float64) {
	b.Helper()
	x, y := oracleProblem(rng.New(1), benchRows, benchDims)
	r, err := FitWithGridSearch(x, y, 1e-3, matern)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := refFitWithGridSearch(x, y, 1e-3, matern)
	if err != nil {
		b.Fatal(err)
	}
	q, _ := oracleProblem(rng.New(2), 64, benchDims)
	return r, ref, q
}

// BenchmarkGPPredict times the posterior at 144 rows: the pre-lane
// Predict ("reference"), one lane and four lanes. ns/query compares them
// per query point; one lane must be no slower than the reference.
func BenchmarkGPPredict(b *testing.B) {
	r, ref, q := benchFit(b)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.predict(q[i%len(q)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
	})
	for _, lanes := range []int{1, Lanes} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			var s Scratch
			var mean, variance [Lanes]float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := (i * lanes) % (len(q) - lanes)
				r.PredictLanes(q[lo:lo+lanes], mean[:], variance[:], &s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/query")
		})
	}
}

// BenchmarkGPFitGrid times the 15-point hyperparameter grid fit at 144
// rows, as each tuning step runs it.
func BenchmarkGPFitGrid(b *testing.B) {
	x, y := oracleProblem(rng.New(1), benchRows, benchDims)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitWithGridSearch(x, y, 1e-3, matern); err != nil {
			b.Fatal(err)
		}
	}
}
