package anneal

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
)

func TestRunFindsGlobalOptimumSmallSpace(t *testing.T) {
	g := rng.New(1)
	// Score peaks at index 777 in a space of 10k.
	p := Problem{
		Size: 10000,
		Score: perIndex(func(i int64) float64 {
			d := float64(i - 777)
			return -d * d
		}),
		Neighbor: func(i int64, g *rng.RNG) int64 {
			return i + int64(g.Intn(201)) - 100
		},
	}
	res, err := Run(p, Config{Chains: 32, Steps: 300, StartTemp: 1000, FinalTemp: 0.1}, 5, g)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Index != 777 {
		t.Fatalf("best index = %d want 777", res[0].Index)
	}
}

func TestRunResultsSortedAndDistinct(t *testing.T) {
	g := rng.New(2)
	p := Problem{
		Size:  1000,
		Score: perIndex(func(i int64) float64 { return math.Sin(float64(i) / 50) }),
	}
	res, err := Run(p, Config{Chains: 16, Steps: 100, StartTemp: 1, FinalTemp: 0.01}, 20, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("len = %d want 20", len(res))
	}
	seen := map[int64]bool{}
	for i, r := range res {
		if seen[r.Index] {
			t.Fatalf("duplicate index %d", r.Index)
		}
		seen[r.Index] = true
		if i > 0 && res[i-1].Score < r.Score {
			t.Fatal("results not sorted descending")
		}
	}
}

func TestRunRespectsSeeds(t *testing.T) {
	g := rng.New(3)
	var visited sync.Map // Score runs on multiple goroutines
	p := Problem{
		Size: 1 << 40, // astronomically large: random restarts won't find 12345
		Score: perIndex(func(i int64) float64 {
			visited.Store(i, true)
			if i == 12345 {
				return 100
			}
			return 0
		}),
		Neighbor: func(i int64, g *rng.RNG) int64 { return i + int64(g.Intn(3)) - 1 },
	}
	res, err := Run(p, Config{Chains: 4, Steps: 20, StartTemp: 1, FinalTemp: 0.1,
		InitialSeed: []int64{12345}}, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Index != 12345 {
		t.Fatalf("seeded optimum lost: best = %d", res[0].Index)
	}
}

func TestRunValidation(t *testing.T) {
	g := rng.New(4)
	if _, err := Run(Problem{Size: 0, Score: perIndex(func(int64) float64 { return 0 })}, DefaultConfig(), 1, g); err == nil {
		t.Fatal("empty space accepted")
	}
	if _, err := Run(Problem{Size: 10}, DefaultConfig(), 1, g); err == nil {
		t.Fatal("nil score accepted")
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	g := rng.New(5)
	p := Problem{Size: 100, Score: perIndex(func(i int64) float64 { return float64(i) })}
	res, err := Run(p, Config{}, 3, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("len = %d want 3", len(res))
	}
	// With default chains/steps over a 100-point space, the max must be found.
	if res[0].Index != 99 {
		t.Fatalf("best = %d want 99", res[0].Index)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := Problem{
		Size:  5000,
		Score: perIndex(func(i int64) float64 { return math.Cos(float64(i) / 100) }),
	}
	a, err := Run(p, Config{Chains: 8, Steps: 50, StartTemp: 1, FinalTemp: 0.05}, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, Config{Chains: 8, Steps: 50, StartTemp: 1, FinalTemp: 0.05}, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic annealing")
		}
	}
}

// TestPartialConfigKeepsCallerFields is the regression test for the bug
// where a non-positive Chains or Steps silently replaced the entire config
// with DefaultConfig(), discarding the caller's valid fields.
func TestPartialConfigKeepsCallerFields(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"steps only", Config{Steps: 7},
			Config{Chains: 64, Steps: 7, StartTemp: 1, FinalTemp: 0.02}},
		{"chains only", Config{Chains: 3},
			Config{Chains: 3, Steps: 150, StartTemp: 1, FinalTemp: 0.02}},
		{"temps survive zero chains", Config{StartTemp: 500, FinalTemp: 2},
			Config{Chains: 64, Steps: 150, StartTemp: 500, FinalTemp: 2}},
		{"final temp above start re-derived", Config{StartTemp: 10, FinalTemp: 20},
			Config{Chains: 64, Steps: 150, StartTemp: 10, FinalTemp: 0.2}},
		{"all set passes through", Config{Chains: 2, Steps: 3, StartTemp: 4, FinalTemp: 1},
			Config{Chains: 2, Steps: 3, StartTemp: 4, FinalTemp: 1}},
	}
	for _, tc := range cases {
		got := tc.in.withDefaults()
		if got.Chains != tc.want.Chains || got.Steps != tc.want.Steps ||
			got.StartTemp != tc.want.StartTemp || got.FinalTemp != tc.want.FinalTemp {
			t.Errorf("%s: withDefaults() = %+v want %+v", tc.name, got, tc.want)
		}
	}
}

// TestRunWorkerCountInvariant is the tentpole determinism contract: a fixed
// seed must produce byte-identical results for any worker count.
func TestRunWorkerCountInvariant(t *testing.T) {
	p := Problem{
		Size:  20000,
		Score: perIndex(func(i int64) float64 { return math.Sin(float64(i)/300) + math.Cos(float64(i)/77) }),
		Neighbor: func(i int64, g *rng.RNG) int64 {
			return i + int64(g.Intn(401)) - 200
		},
	}
	var ref []Result
	for _, workers := range []int{1, 2, 4, 13} {
		cfg := Config{Chains: 24, Steps: 80, StartTemp: 2, FinalTemp: 0.05, Workers: workers}
		res, err := Run(p, cfg, 32, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res) != len(ref) {
			t.Fatalf("workers=%d: %d results want %d", workers, len(res), len(ref))
		}
		for i := range res {
			if res[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %+v want %+v", workers, i, res[i], ref[i])
			}
		}
	}
}

// TestRunTracedIsByteIdentical pins the telemetry contract at the anneal
// layer: a traced run (any worker count) returns exactly what the
// untraced run returns, and the trace carries one "anneal" span.
func TestRunTracedIsByteIdentical(t *testing.T) {
	p := Problem{
		Size:  20000,
		Score: perIndex(func(i int64) float64 { return math.Sin(float64(i)/300) + math.Cos(float64(i)/77) }),
		Neighbor: func(i int64, g *rng.RNG) int64 {
			return i + int64(g.Intn(401)) - 200
		},
	}
	ref, err := Run(p, Config{Chains: 24, Steps: 80, StartTemp: 2, FinalTemp: 0.05, Workers: 1}, 32, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var trace bytes.Buffer
		cfg := Config{Chains: 24, Steps: 80, StartTemp: 2, FinalTemp: 0.05, Workers: workers,
			Tracer: telemetry.NewTracer(&trace, telemetry.NewFakeClock(time.Unix(0, 0)))}
		res, err := Run(p, cfg, 32, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(ref) {
			t.Fatalf("workers=%d traced: %d results want %d", workers, len(res), len(ref))
		}
		for i := range res {
			if res[i] != ref[i] {
				t.Fatalf("workers=%d traced: result[%d] = %+v want %+v", workers, i, res[i], ref[i])
			}
		}
		if !bytes.Contains(trace.Bytes(), []byte(`"stage":"anneal"`)) {
			t.Fatalf("trace missing anneal span: %s", trace.String())
		}
	}
}

// TestRunFreshStreamsPerCall guards the salt draw: two Run calls on the
// same parent RNG must not replay identical chain trajectories.
func TestRunFreshStreamsPerCall(t *testing.T) {
	g := rng.New(11)
	p := Problem{
		Size:  1 << 30,
		Score: perIndex(func(i int64) float64 { return float64(i % 997) }),
	}
	cfg := Config{Chains: 4, Steps: 10, StartTemp: 1, FinalTemp: 0.1}
	a, err := Run(p, cfg, 16, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, cfg, 16, g)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("successive Run calls visited identical points")
	}
}

func TestNegativeSeedWrapped(t *testing.T) {
	g := rng.New(7)
	p := Problem{Size: 50, Score: perIndex(func(i int64) float64 { return -float64(i) })}
	res, err := Run(p, Config{Chains: 2, Steps: 10, StartTemp: 1, FinalTemp: 0.1,
		InitialSeed: []int64{-3}}, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Index < 0 || res[0].Index >= 50 {
		t.Fatalf("out-of-range result %d", res[0].Index)
	}
}
