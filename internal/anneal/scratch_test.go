package anneal

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// TestScratchReuseMatchesFresh runs one Scratch through a sequence of
// Runs whose chain counts and step counts grow and shrink (so the memo
// is both remade and cleared, and chain RNGs are both made and
// reseeded), and checks every Run against a fresh Run on a parent RNG
// with the same history, at 1, 2 and 4 workers.
func TestScratchReuseMatchesFresh(t *testing.T) {
	schedule := []struct{ chains, steps, topK int }{
		{16, 40, 64}, {64, 60, 64}, {3, 20, 5}, {17, 80, 1 << 20}, {64, 60, 64}, {1, 10, 2}, {33, 30, 64},
	}
	for _, tc := range oracleCases() {
		for _, workers := range []int{1, 2, 4} {
			var ws Scratch
			gReuse, gFresh := rng.New(11), rng.New(11)
			for k, sc := range schedule {
				label := fmt.Sprintf("%s workers=%d run %d", tc.name, workers, k)
				cfg := Config{Chains: sc.chains, Steps: sc.steps, StartTemp: 2, FinalTemp: 0.05,
					Workers: workers, InitialSeed: oracleSeeds}
				p := Problem{Size: 20000, Neighbor: tc.neighbor, Score: perIndex(tc.score)}
				got, err := ws.Run(p, cfg, sc.topK, gReuse)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(p, cfg, sc.topK, gFresh)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label, got, want)
			}
		}
	}
}

// TestTopResultsMatchesFullSort checks the bounded selection against a
// sort of every memo entry, over memos with tied scores, NaN, ±0 and
// ±Inf, for k from 1 to past the memo's size.
func TestTopResultsMatchesFullSort(t *testing.T) {
	nan := math.NaN()
	special := []float64{nan, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, -1, 0.5}
	g := rng.New(5)
	memos := []map[int64]float64{{}, {7: nan}, {3: 0, 2: math.Copysign(0, -1), 1: 0}}
	for _, n := range []int{2, 9, 40, 300, 2000} {
		m := map[int64]float64{}
		for len(m) < n {
			i := g.Int63n(int64(4 * n))
			switch g.Intn(3) {
			case 0:
				m[i] = special[g.Intn(len(special))]
			case 1:
				m[i] = float64(g.Intn(5)) // many ties
			default:
				m[i] = g.NormFloat64()
			}
		}
		memos = append(memos, m)
	}
	for _, m := range memos {
		all := make([]Result, 0, len(m))
		for i, s := range m {
			all = append(all, Result{Index: i, Score: s})
		}
		// The ranking Run used before the bounded selection.
		slices.SortFunc(all, func(a, b Result) int {
			if c := cmp.Compare(b.Score, a.Score); c != 0 {
				return c
			}
			return cmp.Compare(a.Index, b.Index)
		})
		for _, k := range []int{1, 2, 3, 8, 64, len(m) - 1, len(m), len(m) + 10} {
			if k < 1 {
				continue
			}
			sameResults(t, fmt.Sprintf("memo of %d, k=%d", len(m), k), topResults(m, k), all[:min(k, len(all))])
		}
	}
}
