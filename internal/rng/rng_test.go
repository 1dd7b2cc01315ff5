package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 10; i++ {
		a.Float64() // consume only a
	}
	ca, cb := a.Split("child"), b.Split("child")
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("split stream depends on parent consumption")
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	g := New(1)
	x := g.Split("a").Float64()
	y := g.Split("b").Float64()
	if x == y {
		t.Fatal("different labels produced identical first draw")
	}
}

// TestSplitSeedMatchesFNV pins Split's child seed to the FNV-1a hash of
// "<seed>/<label>" that it has always used, so every split stream in
// the repository keeps its values.
func TestSplitSeedMatchesFNV(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
		for _, label := range []string{"", "chain/0", "chain/63", "tune/conv2d", "ü/π"} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d/%s", seed, label)
			if got, want := New(seed).Split(label).Seed(), int64(h.Sum64()); got != want {
				t.Fatalf("Split(%q) of seed %d = %d, want %d", label, seed, got, want)
			}
		}
	}
}

// TestSplitIntoMatchesSplit reseeds one destination over and over, after
// draws of every kind, and checks each stream against a fresh Split.
func TestSplitIntoMatchesSplit(t *testing.T) {
	parent := New(7)
	var dst *RNG
	for i := 0; i < 300; i++ {
		label := "chain/" + strconv.Itoa(i)
		if i%3 == 0 {
			parent = New(int64(i) * 7919) // and across parents
		}
		dst = parent.SplitInto(dst, label)
		want := parent.Split(label)
		if dst.Seed() != want.Seed() {
			t.Fatalf("label %q: seed %d, want %d", label, dst.Seed(), want.Seed())
		}
		for k := 0; k < 40; k++ {
			a, b := dst.Float64(), want.Float64()
			c, d := dst.Int63n(1000+int64(i)), want.Int63n(1000+int64(i))
			e, f := dst.NormFloat64(), want.NormFloat64()
			if a != b || c != d || e != f {
				t.Fatalf("label %q draw %d: (%v %v %v), want (%v %v %v)", label, k, a, c, e, b, d, f)
			}
		}
		// Leave dst part-way through its stream for the next reseed.
		for k := 0; k < i%17; k++ {
			dst.Perm(5)
		}
	}
	if got := New(3).SplitInto(nil, "x"); got.Seed() != New(3).Split("x").Seed() {
		t.Fatalf("SplitInto(nil) seed %d, want Split's", got.Seed())
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	g := New(7)
	counts := make([]int, 3)
	weights := []float64{0, 1, 3}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[g.Categorical(weights)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %g want ≈3", ratio)
	}
}

func TestCategoricalZeroSumUniform(t *testing.T) {
	g := New(8)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[g.Categorical([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Fatalf("category %d drawn %d times; not uniform", i, c)
		}
	}
}

func TestCategoricalPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	New(1).Categorical([]float64{1, -1})
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := New(9)
	f := func(seed int64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		k := 1 + r.Intn(n)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: g.r}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementAll(t *testing.T) {
	g := New(10)
	s := g.SampleWithoutReplacement(5, 10)
	if len(s) != 5 {
		t.Fatalf("len = %d want 5", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("not a permutation: %v", s)
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(11)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := g.Normal(3, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean = %g want ≈3", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %g want ≈2", std)
	}
}

func TestExponentialMean(t *testing.T) {
	g := New(12)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean = %g want ≈0.5", mean)
	}
}

func TestGumbelFinite(t *testing.T) {
	g := New(13)
	for i := 0; i < 1000; i++ {
		v := g.Gumbel()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Gumbel produced %g", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(14)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) rate = %g", frac)
	}
}
