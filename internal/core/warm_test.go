package core

import (
	"reflect"
	"testing"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// donorWarmStart turns a finished cold run into the warm-start payload a
// cache miss would hand the next session (donor best as seed, top samples
// normalized by the donor's best).
func donorWarmStart(t *testing.T, res *tuner.Result, sp *space.Space) *cache.WarmStart {
	t.Helper()
	if res.BestIndex < 0 || len(res.TopMeasured) == 0 {
		t.Fatal("donor run found nothing")
	}
	ws := &cache.WarmStart{
		Seeds:  []int64{res.BestIndex},
		Donors: []string{"rtx-2080-ti"},
	}
	top := res.TopMeasured
	if len(top) > 8 {
		top = top[:8]
	}
	for _, m := range top {
		ws.Features = append(ws.Features, sp.FeaturesAt(m.Index))
		ws.GFLOPS = append(ws.GFLOPS, m.GFLOPS/res.BestGFLOPS)
	}
	return ws
}

// TestGlimpseWarmStartDeterministic pins the reproducibility contract for
// warm runs: for a fixed warm-start payload and seed, results are
// byte-identical across runs and across worker counts.
func TestGlimpseWarmStartDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and runs tuning sessions")
	}
	tk := smallToolkit(t)
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.MustForTask(task)
	m := measure.MustNewLocal(hwspec.TitanXp)

	donor, err := tk.Tuner().Tune(task, sp, m, tuner.Budget{MaxMeasurements: 32}, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	ws := donorWarmStart(t, donor, sp)

	budget := tuner.Budget{MaxMeasurements: 48}
	run := func(workers int) *tuner.Result {
		gl := tk.Tuner()
		gl.Workers = workers
		gl.SetWarmStart(ws)
		res, err := gl.Tune(task, sp, m, budget, rng.New(81))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("warm runs with identical seed diverged:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("warm run depends on worker count:\n%+v\n%+v", a, c)
	}
}

// TestGlimpseWarmSeedMeasured pins the §3.1 wiring: a warm-start seed
// joins the initial batch and is actually measured, bypassing the
// ensemble filter.
func TestGlimpseWarmSeedMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and runs tuning sessions")
	}
	tk := smallToolkit(t)
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.MustForTask(task)
	m := measure.MustNewLocal(hwspec.TitanXp)

	donor, err := tk.Tuner().Tune(task, sp, m, tuner.Budget{MaxMeasurements: 32}, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	ws := donorWarmStart(t, donor, sp)

	gl := tk.Tuner()
	gl.SetWarmStart(ws)
	// Budget below TopMeasuredCap, so every measured config is visible in
	// TopMeasured — if the seed was measured, it must appear.
	res, err := gl.Tune(task, sp, m, tuner.Budget{MaxMeasurements: 16}, rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mm := range res.TopMeasured {
		if mm.Index == ws.Seeds[0] {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("warm seed %d never measured (measured: %+v)", ws.Seeds[0], res.TopMeasured)
	}
	// The seed is the donor's best on the same simulated hardware, so the
	// warm session can never do worse than that seed.
	if res.BestGFLOPS < donor.BestGFLOPS {
		t.Fatalf("warm best %g below its own seed's %g", res.BestGFLOPS, donor.BestGFLOPS)
	}
}

// TestLazyGlimpseMatchesGlimpse: the lazy tuner keeps Glimpse's name,
// gets its toolkit only when it tunes, and forwards the warm start to a
// result identical to the eager tuner's.
func TestLazyGlimpseMatchesGlimpse(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and runs tuning sessions")
	}
	tk := smallToolkit(t)
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.MustForTask(task)
	m := measure.MustNewLocal(hwspec.TitanXp)
	donor, err := tk.Tuner().Tune(task, sp, m, tuner.Budget{MaxMeasurements: 32}, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	ws := donorWarmStart(t, donor, sp)
	budget := tuner.Budget{MaxMeasurements: 48}

	loads := 0
	lazy := &LazyGlimpse{Toolkit: func() (*Toolkit, error) { loads++; return tk, nil }}
	lazy.SetWarmStart(ws)
	if lazy.Name() != tk.Tuner().Name() || loads != 0 {
		t.Fatalf("lazy tuner named %q after %d toolkit loads", lazy.Name(), loads)
	}
	got, err := lazy.Tune(task, sp, m, budget, rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	gl := tk.Tuner()
	gl.SetWarmStart(ws)
	want, err := gl.Tune(task, sp, m, budget, rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	if loads != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("lazy tune (%d toolkit loads) diverged:\n%+v\n%+v", loads, got, want)
	}
}
