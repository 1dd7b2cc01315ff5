package prior

import (
	"math"
	"sync"
	"testing"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/nn"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func TestLayoutsMatchEveryTaskSpace(t *testing.T) {
	for _, model := range workload.Models {
		for _, task := range workload.MustTasks(model) {
			sp := space.MustForTask(task)
			layout := MustLayoutFor(task.Kind)
			if err := layout.CheckSpace(sp); err != nil {
				t.Fatalf("%s: %v", task.Name(), err)
			}
		}
	}
}

func TestLayoutTotalLens(t *testing.T) {
	// conv2d: 3 splits×4 parts×2 + 3 splits×2 parts×2 + 3 + 2 = 41.
	if l := MustLayoutFor(workload.Conv2D); l.TotalLen != 41 {
		t.Fatalf("conv2d layout len = %d want 41", l.TotalLen)
	}
	// winograd: 2×4×2 + 1×2×2 + 3 + 2 = 25.
	if l := MustLayoutFor(workload.WinogradConv2D); l.TotalLen != 25 {
		t.Fatalf("winograd layout len = %d want 25", l.TotalLen)
	}
	// dense: 1×3×2 + 1×2×2 + 3 + 2 = 15.
	if l := MustLayoutFor(workload.Dense); l.TotalLen != 15 {
		t.Fatalf("dense layout len = %d want 15", l.TotalLen)
	}
}

func TestNewDistValidatesLength(t *testing.T) {
	layout := MustLayoutFor(workload.Dense)
	if _, err := NewDist(layout, make([]float64, 3)); err == nil {
		t.Fatal("short param vector accepted")
	}
}

// handDist builds a Dist that strongly prefers a specific split pattern.
func handDist(t *testing.T, task workload.Task) (*Dist, *space.Space) {
	t.Helper()
	sp := space.MustForTask(task)
	layout := MustLayoutFor(task.Kind)
	params := make([]float64, layout.TotalLen)
	for _, kl := range layout.Knobs {
		if kl.Kind == space.KindSplit {
			for p := 0; p < kl.Parts; p++ {
				params[kl.Offset+2*p] = 2.0             // prefer factors ≈4
				params[kl.Offset+2*p+1] = math.Log(0.3) // tight
			}
		} else {
			for o := 0; o < kl.Options; o++ {
				params[kl.Offset+o] = float64(o) // prefer the last option
			}
		}
	}
	d, err := NewDist(layout, params)
	if err != nil {
		t.Fatal(err)
	}
	return d, sp
}

func TestKnobWeightsPreferTarget(t *testing.T) {
	task, err := workload.TaskByIndex(workload.ResNet18, 17) // dense 512→1000
	if err != nil {
		t.Fatal(err)
	}
	d, sp := handDist(t, task)
	w := d.KnobWeights(sp, 0) // tile_y over 1000, 3 parts
	knob := &sp.Knobs[0]
	_, best := maxAt(w)
	v := knob.SplitValue(best)
	// The preferred entry should have balanced mid-size factors, not [1,1,1000].
	for _, f := range v {
		if f > 64 {
			t.Fatalf("preferred split %v far from the prior's mean", v)
		}
	}
	// Weights are non-negative and not all equal.
	allEq := true
	for i := 1; i < len(w); i++ {
		if w[i] < 0 {
			t.Fatal("negative weight")
		}
		if w[i] != w[0] {
			allEq = false
		}
	}
	if allEq {
		t.Fatal("weights degenerate")
	}
}

func maxAt(v []float64) (float64, int) {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return best, bi
}

func TestLogProbHigherForPreferred(t *testing.T) {
	task, err := workload.TaskByIndex(workload.ResNet18, 17)
	if err != nil {
		t.Fatal(err)
	}
	d, sp := handDist(t, task)
	argmax := d.ArgmaxConfig(sp)
	worst := make(space.Config, len(sp.Knobs))
	for k := range sp.Knobs {
		w := d.KnobWeights(sp, k)
		_, bi := maxAt(w)
		// pick the least-weighted entry instead
		wi, worstI := w[0], 0
		for i, x := range w {
			if x < wi {
				wi, worstI = x, i
			}
		}
		_ = bi
		worst[k] = worstI
	}
	if d.LogProb(sp, argmax) <= d.LogProb(sp, worst) {
		t.Fatal("argmax config not preferred by LogProb")
	}
}

func TestSampleDistinctAndInSpace(t *testing.T) {
	task, err := workload.TaskByIndex(workload.AlexNet, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, sp := handDist(t, task)
	g := rng.New(1)
	idxs := d.Sample(sp, 50, g)
	if len(idxs) != 50 {
		t.Fatalf("sampled %d configs want 50", len(idxs))
	}
	seen := map[int64]bool{}
	for _, idx := range idxs {
		if idx < 0 || idx >= sp.Size() {
			t.Fatalf("index %d out of space", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	// First sample is the argmax combination.
	if idxs[0] != sp.ToIndex(d.ArgmaxConfig(sp)) {
		t.Fatal("first sample is not the argmax config")
	}
}

func TestSampleTinySpaceTerminates(t *testing.T) {
	task := workload.Task{Model: "toy", Index: 1, Kind: workload.Dense,
		Dense: workload.DenseShape{Batch: 1, In: 2, Out: 2}}
	d, sp := handDist(t, task)
	g := rng.New(2)
	idxs := d.Sample(sp, 1000, g)
	if int64(len(idxs)) > sp.Size() {
		t.Fatalf("sampled %d from space of %d", len(idxs), sp.Size())
	}
}

func TestTaskInputDim(t *testing.T) {
	task, err := workload.TaskByIndex(workload.VGG16, 1)
	if err != nil {
		t.Fatal(err)
	}
	emb := []float64{0.1, -0.2, 0.3}
	in := TaskInput(task, emb)
	if len(in) != InputDim(3) {
		t.Fatalf("input dim %d want %d", len(in), InputDim(3))
	}
	// Embedding is passed through untouched.
	tail := in[len(in)-3:]
	for i, v := range emb {
		if tail[i] != v {
			t.Fatalf("embedding tail %v", tail)
		}
	}
}

// trainSmallModel trains H on a reduced pool for test speed.
func trainSmallModel(t *testing.T, target string) *Model {
	t.Helper()
	return trainModel(t, target, TrainConfig{
		Dataset: DatasetConfig{SamplesPerTask: 150, TopK: 16},
		Epochs:  200,
	})
}

// trainModel trains H on the reduced pool and task set with cfg.
func trainModel(t *testing.T, target string, cfg TrainConfig) *Model {
	t.Helper()
	specs := hwspec.Registry()
	emb, err := blueprint.Build(specs, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Training pool: a spread of generations, minus the target.
	poolNames := []string{"gtx-1080", "gtx-1080-ti", "rtx-2070", "rtx-2080",
		"titan-rtx", "rtx-3070", "rtx-3080", hwspec.TitanXp, hwspec.RTX2080Ti}
	var pool []hwspec.Spec
	for _, n := range poolNames {
		if n != target {
			pool = append(pool, hwspec.MustByName(n))
		}
	}
	// A handful of tasks spanning all kinds.
	var tasks []workload.Task
	for _, ref := range []struct {
		model string
		l     int
	}{
		{workload.ResNet18, 5}, {workload.ResNet18, 7}, {workload.ResNet18, 8},
		{workload.ResNet18, 13}, {workload.ResNet18, 15}, {workload.ResNet18, 17},
		{workload.AlexNet, 3}, {workload.AlexNet, 8}, {workload.AlexNet, 11},
	} {
		task, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	m, err := Train(emb, pool, tasks, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPriorBeatsRandomOnUnseenGPU is the core §3.1 claim: initial samples
// drawn from H's prior outperform uniform random samples on a GPU that H
// never trained on.
func TestPriorBeatsRandomOnUnseenGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	target := hwspec.RTX2070Super
	m := trainSmallModel(t, target)
	dev := gpusim.NewDevice(hwspec.MustByName(target))
	g := rng.New(11)

	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.MustForTask(task)
	dist, err := m.Distributions(task, dev.Spec)
	if err != nil {
		t.Fatal(err)
	}

	bestOf := func(idxs []int64) float64 {
		best := 0.0
		for _, idx := range idxs {
			if r := dev.MeasureIndex(task, sp, idx); r.Valid && r.GFLOPS > best {
				best = r.GFLOPS
			}
		}
		return best
	}
	priorBest := bestOf(dist.Sample(sp, 40, g.Split("prior")))
	randIdxs := make([]int64, 40)
	rg := g.Split("rand")
	for i := range randIdxs {
		randIdxs[i] = sp.RandomIndex(rg)
	}
	randBest := bestOf(randIdxs)
	if priorBest <= randBest {
		t.Fatalf("prior best %g ≤ random best %g on unseen GPU", priorBest, randBest)
	}
}

func TestDistributionsUnknownKind(t *testing.T) {
	m := &Model{Nets: map[workload.Kind]*nn.Network{}}
	task, err := workload.TaskByIndex(workload.AlexNet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Distributions(task, hwspec.MustByName(hwspec.TitanXp)); err == nil {
		t.Fatal("missing head accepted")
	}
}

// TestDistributionsConcurrent covers glimpsed sessions that share one
// toolkit: many goroutines call Distributions on one Model and must get
// exactly the serial answers (run under -race in make check).
func TestDistributionsConcurrent(t *testing.T) {
	m := trainModel(t, hwspec.RTX2070Super, TrainConfig{
		Dataset: DatasetConfig{SamplesPerTask: 40, TopK: 8},
		Epochs:  5,
	})
	var tasks []workload.Task
	for _, l := range []int{2, 3, 8, 11} {
		task, err := workload.TaskByIndex(workload.AlexNet, l)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	specs := []hwspec.Spec{hwspec.MustByName(hwspec.RTX2070Super), hwspec.MustByName(hwspec.RTX3090)}
	var want [][]float64
	for _, task := range tasks {
		for _, spec := range specs {
			d, err := m.Distributions(task, spec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d.Params)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := 0
				for _, task := range tasks {
					for _, spec := range specs {
						d, err := m.Distributions(task, spec)
						if err != nil {
							errs <- err.Error()
							return
						}
						for j, p := range d.Params {
							if math.Float64bits(p) != math.Float64bits(want[i][j]) {
								errs <- "concurrent Distributions diverged from the serial result"
								return
							}
						}
						i++
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}
