package anneal

import (
	"fmt"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// benchScore stands in for a surrogate model evaluation: a few dozen
// transcendental ops, comparable to a small GBT or GP predict.
func benchScore(i int64) float64 {
	x := float64(i%100003) / 1000
	s := 0.0
	for k := 1; k <= 24; k++ {
		s += math.Sin(x*float64(k)) / float64(k)
	}
	return s
}

// BenchmarkAnneal measures the chain-sharded hot path at several worker
// counts; `make bench` runs it.
func BenchmarkAnneal(b *testing.B) {
	p := Problem{
		Size:  1 << 20,
		Score: perIndex(benchScore),
		Neighbor: func(i int64, g *rng.RNG) int64 {
			return i + int64(g.Intn(2001)) - 1000
		},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Chains: 64, Steps: 200, StartTemp: 1, FinalTemp: 0.02, Workers: workers}
			g := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, cfg, 64, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
