package space

import (
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// refNeighbor is a frozen copy of Neighbor as it was before the digits
// were decoded in place: FromIndex, edit one knob, ToIndex.
func refNeighbor(s *Space, idx int64, g *rng.RNG) int64 {
	cfg := s.FromIndex(idx)
	k := g.Intn(len(s.Knobs))
	n := s.Knobs[k].Size()
	if n == 1 {
		return idx
	}
	if g.Bool(0.5) {
		step := 1
		if g.Bool(0.5) {
			step = -1
		}
		cfg[k] = (cfg[k] + step + n) % n
	} else {
		cfg[k] = g.Intn(n)
	}
	return s.ToIndex(cfg)
}

// refFeatures is a frozen copy of Features as it was before the knobs
// looked their logarithms up: log2 of each split factor and
// log2(1+option) of each categorical value, computed per call.
func refFeatures(s *Space, cfg Config) []float64 {
	var out []float64
	for i := range s.Knobs {
		k := &s.Knobs[i]
		if k.Kind == KindSplit {
			for _, f := range k.SplitValue(cfg[i]) {
				out = append(out, math.Log2(float64(f)))
			}
			continue
		}
		out = append(out, math.Log2(1+float64(k.CategoricalValue(cfg[i]))))
	}
	return out
}

// oracleSpaces covers every template kind (conv2d, winograd, dense).
func oracleSpaces(t *testing.T) []*Space {
	t.Helper()
	var out []*Space
	for _, l := range []int{1, 7, 13, 17} {
		out = append(out, MustForTask(taskOf(t, workload.ResNet18, l)))
	}
	return out
}

// TestNeighborMatchesReference pins Neighbor's proposals and its RNG
// consumption to the FromIndex-based reference: after each call both
// streams must sit at the same position.
func TestNeighborMatchesReference(t *testing.T) {
	for _, s := range oracleSpaces(t) {
		pick := rng.New(7)
		got, want := rng.New(8), rng.New(8)
		for i := 0; i < 2000; i++ {
			idx := s.RandomIndex(pick)
			if a, b := s.Neighbor(idx, got), refNeighbor(s, idx, want); a != b {
				t.Fatalf("%s: Neighbor(%d) = %d want %d", s.TaskName, idx, a, b)
			}
			if a, b := got.Int63n(1<<62), want.Int63n(1<<62); a != b {
				t.Fatalf("%s: RNG stream diverged after Neighbor(%d)", s.TaskName, idx)
			}
		}
	}
}

// TestFeaturesIntoMatchesReference pins Features, FeaturesAt and
// FeaturesInto, the latter reusing one buffer across spaces and calls, to
// refFeatures(FromIndex) bit for bit.
func TestFeaturesIntoMatchesReference(t *testing.T) {
	var buf []float64
	for _, s := range oracleSpaces(t) {
		g := rng.New(9)
		for i := 0; i < 2000; i++ {
			idx := s.RandomIndex(g)
			cfg := s.FromIndex(idx)
			want := refFeatures(s, cfg)
			buf = s.FeaturesInto(idx, buf)
			for _, got := range [][]float64{s.Features(cfg), s.FeaturesAt(idx), buf} {
				if len(got) != len(want) {
					t.Fatalf("%s: %d features want %d", s.TaskName, len(got), len(want))
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s: feature %d of %d = %v want %v", s.TaskName, j, idx, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestIndexHelpersAllocateNothing pins the annealer's per-candidate
// helpers to zero allocations.
func TestIndexHelpersAllocateNothing(t *testing.T) {
	s := MustForTask(taskOf(t, workload.ResNet18, 7))
	g := rng.New(10)
	idx := s.RandomIndex(g)
	buf := make([]float64, 0, s.FeatureLen())
	if allocs := testing.AllocsPerRun(100, func() { buf = s.FeaturesInto(idx, buf) }); allocs != 0 {
		t.Fatalf("FeaturesInto: %v allocs per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { idx = s.Neighbor(idx, g) }); allocs != 0 {
		t.Fatalf("Neighbor: %v allocs per call, want 0", allocs)
	}
}

// TestNeighborPanicsLikeFromIndex pins the out-of-range panic message of
// Neighbor and FeaturesInto to FromIndex's.
func TestNeighborPanicsLikeFromIndex(t *testing.T) {
	s := MustForTask(taskOf(t, workload.AlexNet, 1))
	catch := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	for _, idx := range []int64{-1, s.Size()} {
		want := catch(func() { s.FromIndex(idx) })
		if got := catch(func() { s.Neighbor(idx, rng.New(1)) }); want == nil || got != want {
			t.Fatalf("Neighbor(%d) panic = %v want %v", idx, got, want)
		}
		if got := catch(func() { s.FeaturesInto(idx, nil) }); got != want {
			t.Fatalf("FeaturesInto(%d) panic = %v want %v", idx, got, want)
		}
	}
}
