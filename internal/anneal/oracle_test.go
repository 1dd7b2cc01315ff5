package anneal

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// perIndex adapts a per-index fixture score to the batch Score.
func perIndex(f func(int64) float64) func(idx []int64, out []float64) {
	return func(idx []int64, out []float64) {
		for j, i := range idx {
			out[j] = f(i)
		}
	}
}

// refRun is a frozen copy of the annealer before lockstep groups and the
// score memo: every chain stepped alone with a per-index score, scoring
// every visit afresh, with per-chain visited maps merged at the end. Run
// must return exactly what it returns. Its ranking is the one change
// since: it ranks a NaN score below every number, as Run does, because
// the earlier comparator was no strict weak order with NaNs present.
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
	slices.SortFunc(out, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// oracleCase is one score/neighbour pair the memoized annealer is pinned
// against refRun on.
type oracleCase struct {
	name     string
	score    func(int64) float64
	neighbor func(int64, *rng.RNG) int64
}

func oracleCases() []oracleCase {
	smooth := func(i int64) float64 { return math.Sin(float64(i)/300) + math.Cos(float64(i)/77) }
	nanAt := func(i int64) float64 { // NaN never wins an acceptance and ranks last
		if i%7 == 0 {
			return math.NaN()
		}
		return smooth(i)
	}
	wide := func(i int64, g *rng.RNG) int64 { return i + int64(g.Intn(801)) - 400 } // may leave [0, size)
	short := func(i int64, g *rng.RNG) int64 { return i + int64(g.Intn(5)) - 2 }    // revisits; i itself 1 in 5
	return []oracleCase{
		{"wide", smooth, wide},
		{"short", smooth, short},
		{"wide-nan", nanAt, wide},
		{"short-nan", nanAt, short},
	}
}

// oracleSeeds holds duplicate seeds, seeds outside [0, size) that wrap
// onto others (40005 and -20007 land on 5 and 19993), and a NaN seed (0).
var oracleSeeds = []int64{5, -7, 19000, 5, 40005, -20007, 0}

// sameResults compares rankings bit for bit, so NaN scores compare equal.
func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result[%d] = %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRunMatchesPerChainReference pins the memoized lockstep annealer to
// the per-chain reference for chain counts that do and do not fill the
// last group, proposals that leave the space (skipped without an
// acceptance draw), proposals that revisit points or stay put, duplicate
// and wrapping initial seeds, NaN scores, and several worker counts. It
// ranks every visited point (topK above the visited count), and checks
// every Score call stays within one group.
func TestRunMatchesPerChainReference(t *testing.T) {
	for _, tc := range oracleCases() {
		for _, chains := range []int{1, 3, 4, 7, 16, 17, 24, 64} {
			for _, workers := range []int{1, 2, 5} {
				label := fmt.Sprintf("%s chains=%d workers=%d", tc.name, chains, workers)
				cfg := Config{Chains: chains, Steps: 60, StartTemp: 2, FinalTemp: 0.05, Workers: workers,
					InitialSeed: oracleSeeds}
				p := Problem{Size: 20000, Neighbor: tc.neighbor, Score: func(idx []int64, out []float64) {
					if len(idx) < 1 || len(idx) > GroupSize {
						t.Errorf("%s: a Score call got %d indices, want 1..%d", label, len(idx), GroupSize)
					}
					perIndex(tc.score)(idx, out)
				}}
				got, err := Run(p, cfg, 1<<20, rng.New(int64(chains)))
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label, got, refRun(p.Size, tc.score, tc.neighbor, cfg, 1<<20, rng.New(int64(chains))))
			}
		}
	}
}

// TestRunScoresEachIndexOnce pins the memo: at one worker no index
// reaches Score twice in a Run (so no call repeats one either), and the
// anneal span's "scored" attribute counts exactly the indices Score saw,
// one per visited point. At more worker counts racing groups may repeat
// an index, but the results must still equal the reference.
func TestRunScoresEachIndexOnce(t *testing.T) {
	for _, tc := range oracleCases() {
		for _, workers := range []int{1, 2, 5} {
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			var (
				mu    sync.Mutex
				calls = map[int64]int{}
				total int
			)
			var trace bytes.Buffer
			cfg := Config{Chains: 64, Steps: 80, StartTemp: 2, FinalTemp: 0.05, Workers: workers,
				InitialSeed: oracleSeeds, Tracer: telemetry.NewTracer(&trace, telemetry.NewFakeClock(time.Unix(0, 0)))}
			p := Problem{Size: 20000, Neighbor: tc.neighbor, Score: func(idx []int64, out []float64) {
				mu.Lock()
				defer mu.Unlock()
				for j, i := range idx {
					if slices.Contains(idx[:j], i) {
						t.Errorf("%s: one Score call repeats index %d: %v", label, i, idx)
					}
					calls[i]++
					total++
				}
				perIndex(tc.score)(idx, out)
			}}
			got, err := Run(p, cfg, 1<<20, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, label, got, refRun(p.Size, tc.score, tc.neighbor, cfg, 1<<20, rng.New(9)))
			if workers > 1 {
				continue
			}
			for i, n := range calls {
				if n > 1 {
					t.Errorf("%s: index %d reached Score %d times", label, i, n)
				}
			}
			var ev telemetry.SpanEvent
			if err := json.Unmarshal(trace.Bytes(), &ev); err != nil {
				t.Fatalf("%s: trace %q: %v", label, trace.String(), err)
			}
			if ev.Attrs["scored"] != float64(total) || ev.Attrs["visited"] != float64(len(got)) || total != len(got) {
				t.Errorf("%s: span attrs %v, want scored=visited=%d (%d results)", label, ev.Attrs, total, len(got))
			}
		}
	}
}
