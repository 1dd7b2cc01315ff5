package anneal

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// perIndex adapts a per-index fixture score to the batch Score.
func perIndex(f func(int64) float64) func(idx []int64, out []float64) {
	return func(idx []int64, out []float64) {
		for j, i := range idx {
			out[j] = f(i)
		}
	}
}

// refRun is a frozen copy of the annealer before lockstep groups: every
// chain stepped alone with a per-index score. Run must return exactly
// what it returns.
func refRun(size int64, score func(int64) float64, neighbor func(int64, *rng.RNG) int64,
	cfg Config, topK int, g *rng.RNG) []Result {

	cfg = cfg.withDefaults()
	if neighbor == nil {
		neighbor = func(_ int64, g *rng.RNG) int64 { return g.Int63n(size) }
	}
	cool := math.Pow(cfg.FinalTemp/cfg.StartTemp, 1/float64(cfg.Steps))
	chainBase := rng.New(g.Int63n(math.MaxInt64))
	best := map[int64]float64{}
	for c := 0; c < cfg.Chains; c++ {
		cg := chainBase.Split(fmt.Sprintf("chain/%d", c))
		var state int64
		if c < len(cfg.InitialSeed) {
			state = cfg.InitialSeed[c] % size
			if state < 0 {
				state += size
			}
		} else {
			state = cg.Int63n(size)
		}
		energy := score(state)
		visited := map[int64]float64{state: energy}
		temp := cfg.StartTemp
		for step := 0; step < cfg.Steps; step++ {
			cand := neighbor(state, cg)
			if cand >= 0 && cand < size {
				s := score(cand)
				if old, ok := visited[cand]; !ok || s > old {
					visited[cand] = s
				}
				delta := s - energy
				if delta >= 0 || cg.Float64() < math.Exp(delta/temp) {
					state, energy = cand, s
				}
			}
			temp *= cool
		}
		for i, s := range visited {
			if old, ok := best[i]; !ok || s > old {
				best[i] = s
			}
		}
	}
	out := make([]Result, 0, len(best))
	for i, s := range best {
		out = append(out, Result{Index: i, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// TestRunMatchesPerChainReference pins the lockstep annealer to the
// per-chain reference for chain counts that do and do not fill the last
// group, proposals that leave the space (skipped without an acceptance
// draw), initial seeds, and several worker counts. It also checks every
// Score call stays within one group.
func TestRunMatchesPerChainReference(t *testing.T) {
	score := func(i int64) float64 { return math.Sin(float64(i)/300) + math.Cos(float64(i)/77) }
	neighbor := func(i int64, g *rng.RNG) int64 { return i + int64(g.Intn(801)) - 400 } // may leave [0, size)
	for _, chains := range []int{1, 3, 4, 7, 24, 64} {
		for _, workers := range []int{1, 2, 5} {
			cfg := Config{Chains: chains, Steps: 60, StartTemp: 2, FinalTemp: 0.05, Workers: workers,
				InitialSeed: []int64{5, -7, 19000}}
			p := Problem{Size: 20000, Neighbor: neighbor, Score: func(idx []int64, out []float64) {
				if len(idx) < 1 || len(idx) > GroupSize {
					t.Errorf("chains=%d: a Score call got %d indices, want 1..%d", chains, len(idx), GroupSize)
				}
				perIndex(score)(idx, out)
			}}
			got, err := Run(p, cfg, 40, rng.New(int64(chains)))
			if err != nil {
				t.Fatal(err)
			}
			want := refRun(p.Size, score, neighbor, cfg, 40, rng.New(int64(chains)))
			if len(got) != len(want) {
				t.Fatalf("chains=%d workers=%d: %d results want %d", chains, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("chains=%d workers=%d: result[%d] = %+v want %+v", chains, workers, i, got[i], want[i])
				}
			}
		}
	}
}
