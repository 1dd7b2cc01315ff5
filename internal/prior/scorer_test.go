package prior

import (
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// TestScorerMatchesLogProb pins the cached scorer to the reference
// implementation across random configurations of every template kind.
func TestScorerMatchesLogProb(t *testing.T) {
	for _, l := range []int{7, 13, 17} {
		task, err := workload.TaskByIndex(workload.ResNet18, l)
		if err != nil {
			t.Fatal(err)
		}
		d, sp := handDist(t, task)
		scorer := d.Scorer(sp)
		g := rng.New(int64(l))
		for i := 0; i < 100; i++ {
			idx := sp.RandomIndex(g)
			cfg := sp.FromIndex(idx)
			want := d.LogProb(sp, cfg)
			if got := scorer.LogProb(cfg); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: scorer %g != logprob %g", task.Name(), got, want)
			}
			if got := scorer.LogProbIndex(idx); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: scorer-by-index %g != logprob %g", task.Name(), got, want)
			}
		}
	}
}

func BenchmarkScorerLogProb(b *testing.B) {
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		b.Fatal(err)
	}
	sp := space.MustForTask(task)
	layout := MustLayoutFor(task.Kind)
	params := make([]float64, layout.TotalLen)
	d, err := NewDist(layout, params)
	if err != nil {
		b.Fatal(err)
	}
	scorer := d.Scorer(sp)
	g := rng.New(1)
	idxs := make([]int64, 256)
	for i := range idxs {
		idxs[i] = sp.RandomIndex(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer.LogProbIndex(idxs[i%len(idxs)])
	}
}

// TestLogProbIndexMatchesReference pins LogProbIndex bit for bit to the
// FromIndex-based reference, LogProb(FromIndex(idx)).
func TestLogProbIndexMatchesReference(t *testing.T) {
	for _, l := range []int{1, 7, 13, 17} {
		task, err := workload.TaskByIndex(workload.ResNet18, l)
		if err != nil {
			t.Fatal(err)
		}
		d, sp := handDist(t, task)
		scorer := d.Scorer(sp)
		g := rng.New(int64(100 + l))
		for i := 0; i < 2000; i++ {
			idx := sp.RandomIndex(g)
			got, want := scorer.LogProbIndex(idx), scorer.LogProb(sp.FromIndex(idx))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: LogProbIndex(%d) = %v want %v", task.Name(), idx, got, want)
			}
		}
	}
}

// TestLogProbIndexAllocatesNothingAndPanicsLikeFromIndex pins the
// annealer-facing contract: no allocation, and FromIndex's panic on an
// out-of-range index.
func TestLogProbIndexAllocatesNothingAndPanicsLikeFromIndex(t *testing.T) {
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, sp := handDist(t, task)
	scorer := d.Scorer(sp)
	idx := sp.RandomIndex(rng.New(1))
	if allocs := testing.AllocsPerRun(100, func() { scorer.LogProbIndex(idx) }); allocs != 0 {
		t.Fatalf("LogProbIndex: %v allocs per call, want 0", allocs)
	}
	catch := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	want := catch(func() { sp.FromIndex(sp.Size()) })
	if got := catch(func() { scorer.LogProbIndex(sp.Size()) }); want == nil || got != want {
		t.Fatalf("LogProbIndex panic = %v want %v", got, want)
	}
}
