package gbt

import (
	"fmt"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// benchData synthesizes a training set shaped like a tuner's feature
// matrix: a few dozen featurized knobs, a few hundred measured rows.
func benchData(rows, cols int, seed int64) ([][]float64, []float64) {
	g := rng.New(seed)
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		row := make([]float64, cols)
		s := 0.0
		for j := range row {
			row[j] = g.Float64()
			if j%3 == 0 {
				s += row[j]
			} else {
				s -= 0.5 * row[j] * row[j]
			}
		}
		x[i] = row
		y[i] = s + 0.05*g.NormFloat64()
	}
	return x, y
}

// BenchmarkGBTTrain measures boosted training (split search dominates) at
// several worker counts; `make bench` runs it.
func BenchmarkGBTTrain(b *testing.B) {
	x, y := benchData(1200, 48, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Trees = 12
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(x, y, cfg, rng.New(2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGBTPredictBatch measures batch inference across worker counts.
func BenchmarkGBTPredictBatch(b *testing.B) {
	x, y := benchData(1200, 48, 3)
	q, _ := benchData(4096, 48, 4)
	cfg := DefaultConfig()
	cfg.Trees = 40
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg.Workers = workers
			e, err := Train(x, y, cfg, rng.New(5))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.PredictBatch(q)
			}
		})
	}
}
