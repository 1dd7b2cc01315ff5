package gpusim

import (
	"hash/fnv"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func taskOf(t *testing.T, model string, l int) workload.Task {
	t.Helper()
	task, err := workload.TaskByIndex(model, l)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestMeasureDeterministic(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.TitanXp))
	task := taskOf(t, workload.ResNet18, 7)
	sp := space.MustForTask(task)
	g := rng.New(1)
	for i := 0; i < 50; i++ {
		idx := sp.RandomIndex(g)
		a := d.MeasureIndex(task, sp, idx)
		b := d.MeasureIndex(task, sp, idx)
		if a != b {
			t.Fatalf("measurement not deterministic at %d: %+v vs %+v", idx, a, b)
		}
	}
}

func TestMeasureValidResultsSane(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.RTX2080Ti))
	task := taskOf(t, workload.ResNet18, 7)
	sp := space.MustForTask(task)
	g := rng.New(2)
	validSeen := 0
	for i := 0; i < 500; i++ {
		r := d.MeasureIndex(task, sp, sp.RandomIndex(g))
		if !r.Valid {
			if r.FailReason == "" {
				t.Fatal("invalid result without reason")
			}
			if r.TimeMS != 0 || r.GFLOPS != 0 {
				t.Fatalf("invalid result reports performance: %+v", r)
			}
			if r.CostSec <= 0 {
				t.Fatalf("invalid measurement has no cost: %+v", r)
			}
			continue
		}
		validSeen++
		if r.TimeMS <= 0 || math.IsNaN(r.TimeMS) {
			t.Fatalf("bad time %+v", r)
		}
		if r.GFLOPS <= 0 || r.GFLOPS > d.Spec.PeakGFLOPS {
			t.Fatalf("GFLOPS %g outside (0, peak=%g]", r.GFLOPS, d.Spec.PeakGFLOPS)
		}
		if r.CostSec < 2 || r.CostSec > 6 {
			t.Fatalf("measurement cost %g s implausible", r.CostSec)
		}
	}
	if validSeen < 100 {
		t.Fatalf("only %d/500 random configs valid", validSeen)
	}
}

// TestInvalidFractionRealistic pins the raw-space invalid rate to the
// regime TVM CUDA spaces exhibit: substantial but not overwhelming.
func TestInvalidFractionRealistic(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.TitanXp))
	task := taskOf(t, workload.ResNet18, 7)
	sp := space.MustForTask(task)
	g := rng.New(3)
	invalid := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if r := d.MeasureIndex(task, sp, sp.RandomIndex(g)); !r.Valid {
			invalid++
		}
	}
	frac := float64(invalid) / n
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("raw invalid fraction = %g want in [0.2, 0.8]", frac)
	}
}

func TestValidityRules(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.TitanXp))
	ok, reason := d.CheckValid(space.Resources{ThreadsPerBlock: 2048, VThreads: 1, RegsPerThread: 32, SharedMemBytes: 1024})
	if ok || reason != FailTooManyThreads {
		t.Fatalf("threads rule: ok=%v reason=%q", ok, reason)
	}
	ok, reason = d.CheckValid(space.Resources{ThreadsPerBlock: 128, VThreads: 1, RegsPerThread: 32, SharedMemBytes: 1 << 20})
	if ok || reason != FailSharedMem {
		t.Fatalf("smem rule: ok=%v reason=%q", ok, reason)
	}
	ok, reason = d.CheckValid(space.Resources{ThreadsPerBlock: 1024, VThreads: 1, RegsPerThread: 200, SharedMemBytes: 1024})
	if ok || reason != FailRegisters {
		t.Fatalf("regs rule: ok=%v reason=%q", ok, reason)
	}
	ok, reason = d.CheckValid(space.Resources{ThreadsPerBlock: 32, VThreads: 100, RegsPerThread: 32, SharedMemBytes: 1024})
	if ok || reason != FailVThreads {
		t.Fatalf("vthread rule: ok=%v reason=%q", ok, reason)
	}
	ok, _ = d.CheckValid(space.Resources{ThreadsPerBlock: 128, VThreads: 2, RegsPerThread: 64, SharedMemBytes: 16 * 1024})
	if !ok {
		t.Fatal("reasonable config rejected")
	}
}

// TestOptimumShiftsAcrossGenerations verifies the Fig. 1 premise: the best
// configuration found on one GPU is measurably suboptimal on another.
func TestOptimumShiftsAcrossGenerations(t *testing.T) {
	task := taskOf(t, workload.ResNet18, 7)
	sp := space.MustForTask(task)
	xp := NewDevice(hwspec.MustByName(hwspec.TitanXp))
	ti := NewDevice(hwspec.MustByName(hwspec.RTX2080Ti))

	g := rng.New(4)
	idxs := make([]int64, 3000)
	for i := range idxs {
		idxs[i] = sp.RandomIndex(g)
	}
	bestOn := func(d *Device) (int64, float64) {
		bi, bg := int64(-1), 0.0
		for _, idx := range idxs {
			if r := d.MeasureIndex(task, sp, idx); r.Valid && r.GFLOPS > bg {
				bi, bg = idx, r.GFLOPS
			}
		}
		return bi, bg
	}
	xpIdx, xpBest := bestOn(xp)
	tiIdx, tiBest := bestOn(ti)
	if xpIdx == -1 || tiIdx == -1 {
		t.Fatal("no valid configs found")
	}
	// Reuse in both directions must lose ≥5% (paper: 27.79% / 31.33%).
	reuseOnTi := ti.MeasureIndex(task, sp, xpIdx)
	reuseOnXp := xp.MeasureIndex(task, sp, tiIdx)
	if !reuseOnTi.Valid || !reuseOnXp.Valid {
		t.Skip("cross-hardware best invalid on the other device; rerun with another seed")
	}
	slowTi := 1 - reuseOnTi.GFLOPS/tiBest
	slowXp := 1 - reuseOnXp.GFLOPS/xpBest
	if slowTi < 0.02 && slowXp < 0.02 {
		t.Fatalf("reused optima lose only %.1f%%/%.1f%%; hardware indistinct", 100*slowTi, 100*slowXp)
	}
}

// TestDatasheetSignal verifies faster hardware is actually faster at its
// best configuration — the monotone signal Blueprint priors rely on.
func TestDatasheetSignal(t *testing.T) {
	task := taskOf(t, workload.VGG16, 8) // 512→512 28×28, compute heavy
	sp := space.MustForTask(task)
	g := rng.New(5)
	idxs := make([]int64, 2000)
	for i := range idxs {
		idxs[i] = sp.RandomIndex(g)
	}
	best := func(name string) float64 {
		d := NewDevice(hwspec.MustByName(name))
		bg := 0.0
		for _, idx := range idxs {
			if r := d.MeasureIndex(task, sp, idx); r.Valid && r.GFLOPS > bg {
				bg = r.GFLOPS
			}
		}
		return bg
	}
	xp, s3090 := best(hwspec.TitanXp), best(hwspec.RTX3090)
	if s3090 <= xp {
		t.Fatalf("rtx-3090 best %g ≤ titan-xp best %g", s3090, xp)
	}
}

func TestWinogradBeatsDirectForSmallKernels(t *testing.T) {
	// For a 3×3 stride-1 layer the winograd template's best should beat the
	// direct template's best (its raison d'être).
	direct := taskOf(t, workload.ResNet18, 2) // 64→64 56×56 3×3 s1 direct
	wino := taskOf(t, workload.ResNet18, 13)  // same shape, winograd
	if direct.Conv != wino.Conv {
		t.Fatalf("task pairing broken: %v vs %v", direct.Conv, wino.Conv)
	}
	d := NewDevice(hwspec.MustByName(hwspec.RTX2080Ti))
	g := rng.New(6)
	best := func(task workload.Task) float64 {
		sp := space.MustForTask(task)
		bg := 0.0
		for i := 0; i < 3000; i++ {
			if r := d.MeasureIndex(task, sp, sp.RandomIndex(g)); r.Valid && r.GFLOPS > bg {
				bg = r.GFLOPS
			}
		}
		return bg
	}
	if bd, bw := best(direct), best(wino); bw <= bd {
		t.Fatalf("winograd best %g ≤ direct best %g", bw, bd)
	}
}

func TestDenseTaskMeasurable(t *testing.T) {
	task := taskOf(t, workload.AlexNet, 10) // dense 9216→4096
	sp := space.MustForTask(task)
	d := NewDevice(hwspec.MustByName(hwspec.RTX3090))
	g := rng.New(7)
	valid := 0
	for i := 0; i < 500; i++ {
		if r := d.MeasureIndex(task, sp, sp.RandomIndex(g)); r.Valid {
			valid++
			if r.GFLOPS <= 0 {
				t.Fatalf("dense GFLOPS %g", r.GFLOPS)
			}
		}
	}
	if valid < 50 {
		t.Fatalf("only %d/500 dense configs valid", valid)
	}
}

func TestNoiseBoundedAndKeyed(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.TitanXp))
	// Different config indices produce different noise; magnitudes stay tame.
	a := d.noise("task", "", 1)
	b := d.noise("task", "", 2)
	if a == b {
		t.Fatal("noise not keyed by config")
	}
	for i := int64(0); i < 2000; i++ {
		v := d.noise("task", "", i)
		if v < 0.7 || v > 1.4 {
			t.Fatalf("noise %g outside [0.7, 1.4] at %d", v, i)
		}
	}
	// Keyed by device too.
	d2 := NewDevice(hwspec.MustByName(hwspec.RTX3090))
	if d.noise("task", "", 7) == d2.noise("task", "", 7) {
		t.Fatal("noise not keyed by device")
	}
}

func TestMeasureIndexMatchesMeasure(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.TitanXp))
	task := taskOf(t, workload.AlexNet, 1)
	sp := space.MustForTask(task)
	g := rng.New(8)
	idx := sp.RandomIndex(g)
	if a, b := d.MeasureIndex(task, sp, idx), d.Measure(task, sp, sp.FromIndex(idx)); a != b {
		t.Fatalf("MeasureIndex %+v != Measure %+v", a, b)
	}
}

// TestNoiseHashMatchesFNV pins the inline noise hash to hash/fnv's
// FNV-1a over the key bytes the simulator has always hashed: device name,
// a zero byte, task name plus suffix, and the little-endian index.
func TestNoiseHashMatchesFNV(t *testing.T) {
	d := NewDevice(hwspec.MustByName(hwspec.RTX3090))
	for _, c := range []struct {
		task, suffix string
		idx          int64
	}{
		{"resnet-18.L7.conv2d", "", 0},
		{"resnet-18.L7.conv2d", "!cost", 123456789},
		{"alexnet.L11.dense", "!cost", -1},
		{"", "", 1 << 62},
	} {
		h := fnv.New64a()
		h.Write([]byte(d.Spec.Name))
		h.Write([]byte{0})
		h.Write([]byte(c.task + c.suffix))
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(c.idx >> (8 * i))
		}
		h.Write(buf[:])
		if got, want := d.noiseHash(c.task, c.suffix, c.idx), h.Sum64(); got != want {
			t.Fatalf("noiseHash(%q, %q, %d) = %#x want %#x", c.task, c.suffix, c.idx, got, want)
		}
	}
}
