package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// countingMeasurer records which tasks were actually measured.
type countingMeasurer struct {
	inner measure.Measurer
	mu    sync.Mutex
	tasks map[string]int
}

func newCounting(inner measure.Measurer) *countingMeasurer {
	return &countingMeasurer{inner: inner, tasks: map[string]int{}}
}

func (c *countingMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	c.mu.Lock()
	c.tasks[task.Name()]++
	c.mu.Unlock()
	return c.inner.MeasureBatch(task, sp, idxs)
}

func (c *countingMeasurer) DeviceName() string { return c.inner.DeviceName() }

func (c *countingMeasurer) measured() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for k, v := range c.tasks {
		out[k] = v
	}
	return out
}

func taskName(t *testing.T, model string, index int) string {
	t.Helper()
	task, err := workload.TaskByIndex(model, index)
	if err != nil {
		t.Fatal(err)
	}
	return task.Name()
}

// crashPolicy is the scheduler setting of the device-crash tests. The
// dispatcher owns retries, so each endpoint attempt fails at once, and
// the endpoint's breaker never opens, so one task's dead device does not
// block the device's other tasks (breaker dynamics are covered by
// measure's own tests and the scheduler's chaos tests).
func crashPolicy() SchedulerConfig {
	return SchedulerConfig{Reliable: measure.ReliableConfig{MaxAttempts: 1, BreakerThreshold: 1 << 20, Seed: 1}}
}

func TestTuneModelPartialPlanOnDeviceCrash(t *testing.T) {
	crash := taskName(t, workload.ResNet18, 17)
	cfg := Config{
		Model:    workload.ResNet18,
		Tasks:    subset(t, workload.ResNet18, 2, 13, 17),
		Budget:   tuner.Budget{MaxMeasurements: 48},
		NewTuner: randomTunerFactory,
	}
	inj := faults.New(measure.MustNewLocal(hwspec.TitanXp),
		faults.Config{Seed: 1, CrashAfterCalls: 1, CrashTasks: map[string]bool{crash: true}})
	plan, err := tuneOn(cfg, crashPolicy(), inj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 3 {
		t.Fatalf("plan has %d tasks, want 3 (failed ones included)", len(plan.Tasks))
	}
	if plan.FailedTasks != 1 || plan.Complete() {
		t.Fatalf("FailedTasks = %d, Complete = %v", plan.FailedTasks, plan.Complete())
	}
	failed := plan.FailedTaskPlans()
	if len(failed) != 1 || failed[0].TaskName != crash {
		t.Fatalf("failed tasks %+v, want exactly %s", failed, crash)
	}
	if !strings.Contains(failed[0].Error, "crashed") {
		t.Fatalf("failure cause lost: %q", failed[0].Error)
	}
	if failed[0].ConfigIndex != -1 || failed[0].GFLOPS != 0 {
		t.Fatalf("failed task carries stale results: %+v", failed[0])
	}
	// The two surviving tasks still produced a deployable partial plan.
	if plan.LatencyMS <= 0 || plan.Measurements != 2*48 {
		t.Fatalf("latency %g measurements %d", plan.LatencyMS, plan.Measurements)
	}
}

// faultyFleetMeasurer builds the acceptance scenario: every device flakes
// transiently at 20%, one crashes for one task after its first call, and
// all of it sits behind a Reliable wrapper that retries. BreakerThreshold
// is set high so task outcomes stay independent of goroutine interleaving
// (breaker dynamics are covered deterministically in measure's own tests).
func faultyFleetMeasurer(crashGPU, crashTask string, seed int64) func(gpu string) (measure.Measurer, error) {
	return func(gpu string) (measure.Measurer, error) {
		local, err := measure.NewLocal(gpu)
		if err != nil {
			return nil, err
		}
		fcfg := faults.Config{Seed: seed, TransientErrorRate: 0.2}
		if gpu == crashGPU {
			fcfg.CrashAfterCalls = 1
			fcfg.CrashTasks = map[string]bool{crashTask: true}
		}
		return measure.NewReliable(measure.ReliableConfig{
			MaxAttempts:      4,
			BreakerThreshold: 1000,
			Seed:             seed,
			Sleep:            func(time.Duration) {},
		}, faults.New(local, fcfg))
	}
}

func TestTuneFleetSurvivesFaultyDeviceDeterministically(t *testing.T) {
	gpus := []string{hwspec.TitanXp, hwspec.RTX2070Super, hwspec.RTX2080Ti, hwspec.RTX3090}
	crashTask := taskName(t, workload.ResNet18, 17)
	run := func() []*Plan {
		cfg := Config{
			Model:    workload.ResNet18,
			Tasks:    subset(t, workload.ResNet18, 2, 13, 17),
			Budget:   tuner.Budget{MaxMeasurements: 48},
			NewTuner: randomTunerFactory,
		}
		newMeasurer := faultyFleetMeasurer(hwspec.RTX2080Ti, crashTask, 99)
		var eps []Endpoint
		for _, gpu := range gpus {
			m, err := newMeasurer(gpu)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, deviceEndpoint(m))
		}
		s, err := NewScheduler(crashPolicy(), eps)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := s.Run(cfg, gpus, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return plans
	}
	plans := run()
	if len(plans) != 4 {
		t.Fatalf("%d plans", len(plans))
	}
	full := 0
	for _, p := range plans {
		if p.Complete() {
			full++
			if p.LatencyMS <= 0 {
				t.Fatalf("complete plan for %s has latency %g", p.GPU, p.LatencyMS)
			}
		}
	}
	if full != 3 {
		t.Fatalf("%d full plans, want 3", full)
	}
	partial := plans[2] // the crashing device
	if partial.Complete() || partial.GPU != hwspec.RTX2080Ti {
		t.Fatalf("expected partial plan for %s, got %+v", hwspec.RTX2080Ti, partial)
	}
	failed := partial.FailedTaskPlans()
	if len(failed) != 1 || failed[0].TaskName != crashTask || failed[0].Error == "" {
		t.Fatalf("partial plan failures: %+v", failed)
	}
	// 20% transient flakiness was absorbed by retries on every device.
	if partial.LatencyMS <= 0 || len(partial.Tasks) != 3 {
		t.Fatalf("partial plan lost surviving tasks: %+v", partial)
	}
	// Identical seeds reproduce the identical outcome, faults included.
	again := run()
	if !reflect.DeepEqual(plans, again) {
		t.Fatal("fault-injected fleet run is not deterministic under a fixed seed")
	}
}

func TestFleetResumeRemeasuresOnlyFailedTasks(t *testing.T) {
	crash := taskName(t, workload.ResNet18, 17)
	path := filepath.Join(t.TempDir(), "fleet.ckpt.jsonl")
	cfg := Config{
		Model:    workload.ResNet18,
		Tasks:    subset(t, workload.ResNet18, 2, 13, 17),
		Budget:   tuner.Budget{MaxMeasurements: 48},
		NewTuner: randomTunerFactory,
	}

	// Session 1: the device dies for one task; the other two are
	// checkpointed as they complete.
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	inj := faults.New(measure.MustNewLocal(hwspec.TitanXp),
		faults.Config{Seed: 1, CrashAfterCalls: 1, CrashTasks: map[string]bool{crash: true}})
	plan1, err := tuneOn(cfg, crashPolicy(), inj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan1.FailedTasks != 1 || ck.Len() != 2 {
		t.Fatalf("session 1: failed %d, checkpointed %d", plan1.FailedTasks, ck.Len())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: resumed against a healthy device — only the crashed task
	// is measured again.
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	cfg.Checkpoint = ck2
	counting := newCounting(measure.MustNewLocal(hwspec.TitanXp))
	plan2, err := tuneOn(cfg, crashPolicy(), counting, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Complete() {
		t.Fatalf("resumed plan still failed: %+v", plan2.FailedTaskPlans())
	}
	if plan2.ResumedTasks != 2 {
		t.Fatalf("ResumedTasks = %d, want 2", plan2.ResumedTasks)
	}
	measured := counting.measured()
	if len(measured) != 1 || measured[crash] == 0 {
		t.Fatalf("resume re-measured %v, want only %s", measured, crash)
	}
	resumed := 0
	for _, tp := range plan2.Tasks {
		if tp.FromCheckpoint {
			resumed++
			if tp.TaskName == crash {
				t.Fatal("failed task restored from checkpoint")
			}
		}
	}
	if resumed != 2 {
		t.Fatalf("%d tasks marked FromCheckpoint", resumed)
	}
	// Plan totals still account for the GPU time paid in session 1.
	if plan2.Measurements != 3*48 {
		t.Fatalf("resumed plan measurements %d, want %d", plan2.Measurements, 3*48)
	}
	if ck2.Len() != 3 {
		t.Fatalf("checkpoint holds %d tasks after resume, want 3", ck2.Len())
	}

	// Session 3: everything checkpointed — nothing is measured at all.
	ck3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	cfg.Checkpoint = ck3
	counting3 := newCounting(measure.MustNewLocal(hwspec.TitanXp))
	plan3, err := tuneOn(cfg, crashPolicy(), counting3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(counting3.measured()) != 0 {
		t.Fatalf("fully-checkpointed run measured %v", counting3.measured())
	}
	if plan3.ResumedTasks != 3 || !plan3.Complete() {
		t.Fatalf("session 3 plan: %+v", plan3)
	}
	if plan3.LatencyMS != plan2.LatencyMS {
		t.Fatalf("latency drifted across resume: %g vs %g", plan3.LatencyMS, plan2.LatencyMS)
	}
}

// TestCheckpointSurvivesTruncatedTail cuts a checkpoint at every byte
// offset, as a kill mid-append would: the reopen keeps every plan whose
// line reached disk (with or without its newline), and a plan appended
// after the repair survives the next reopen.
func TestCheckpointSurvivesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	plans := []TaskPlan{
		{TaskName: "alexnet/conv-1", TaskIndex: 1, ConfigIndex: 7, GFLOPS: 100, TimeMS: 1},
		{TaskName: "alexnet/conv-2", TaskIndex: 2, ConfigIndex: 3, GFLOPS: 50, TimeMS: 2},
		{TaskName: "alexnet/conv-3", TaskIndex: 3, ConfigIndex: 9, GFLOPS: 75, TimeMS: 3},
	}
	for _, tp := range plans {
		if err := ck.Append(testKey(tp.TaskName), tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := TaskPlan{TaskName: "alexnet/conv-4", TaskIndex: 4, ConfigIndex: 1, GFLOPS: 20, TimeMS: 4}

	for off := 0; off <= len(full); off++ {
		// Plan i survives once every byte of its line but the newline is on disk.
		kept := 0
		for end := 0; kept < len(plans); kept++ {
			end += bytes.IndexByte(full[end:], '\n')
			if end > off {
				break
			}
			end++
		}
		cut := filepath.Join(dir, fmt.Sprintf("cut-%d.jsonl", off))
		if err := os.WriteFile(cut, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		ck2, err := OpenCheckpoint(cut)
		if err != nil {
			t.Fatalf("offset %d: truncated checkpoint rejected: %v", off, err)
		}
		if ck2.Len() != kept {
			t.Fatalf("offset %d: loaded %d entries, want %d", off, ck2.Len(), kept)
		}
		if err := ck2.Append(testKey(next.TaskName), next); err != nil {
			t.Fatal(err)
		}
		if err := ck2.Close(); err != nil {
			t.Fatal(err)
		}
		ck3, err := OpenCheckpoint(cut)
		if err != nil {
			t.Fatalf("offset %d: reopen after repair+append: %v", off, err)
		}
		for _, tp := range append(plans[:kept:kept], next) {
			got, ok := ck3.Lookup(testKey(tp.TaskName))
			if !ok || !reflect.DeepEqual(got, tp) {
				t.Fatalf("offset %d: %s reloaded as %+v (found=%v), want %+v", off, tp.TaskName, got, ok, tp)
			}
		}
		if ck3.Len() != kept+1 {
			t.Fatalf("offset %d: after repair+append: %d entries, want %d", off, ck3.Len(), kept+1)
		}
		if err := ck3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointIgnoresFailedPlans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	bad := TaskPlan{TaskName: "x", TaskIndex: 1, Failed: true, Error: "boom"}
	if err := ck.Append(testKey(bad.TaskName), bad); err != nil {
		t.Fatal(err)
	}
	if ck.Len() != 0 {
		t.Fatal("failed task checkpointed")
	}
	if _, ok := ck.Lookup(testKey("x")); ok {
		t.Fatal("failed task resumable")
	}
}

// testBudget is the budget the checkpoint unit tests record plans under.
var testBudget = tuner.Budget{MaxMeasurements: 16}

// testKey is the run key the checkpoint unit tests record a task under.
func testKey(task string) CheckpointKey {
	return CheckpointKey{Model: workload.AlexNet, GPU: hwspec.TitanXp, Tuner: "random",
		Task: task, Seed: 1, Budget: testBudget}
}

// TestTuneTaskCheckpointKeysOnBudget reruns a checkpointed task under
// another budget: it must tune again, not serve the plan measured under
// the first budget, while a rerun under the first budget still resumes.
// A line that records no budget serves no budget.
func TestTuneTaskCheckpointKeysOnBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	task := subset(t, workload.AlexNet, 2)[0]
	run := func(measurements int) TaskPlan {
		t.Helper()
		cfg := Config{
			Model:      workload.AlexNet,
			Budget:     tuner.Budget{MaxMeasurements: measurements},
			NewTuner:   randomTunerFactory,
			Checkpoint: ck,
		}
		tp, err := TuneTask(&cfg, measure.MustNewLocal(hwspec.TitanXp), task, rng.New(3))
		if err != nil || tp.Failed {
			t.Fatalf("budget %d: plan %+v, err %v", measurements, tp, err)
		}
		return tp
	}
	if tp := run(16); tp.FromCheckpoint || tp.Measurements != 16 {
		t.Fatalf("first run: plan %+v", tp)
	}
	if tp := run(32); tp.FromCheckpoint || tp.Measurements != 32 {
		t.Fatalf("budget 32 on a budget-16 checkpoint: plan %+v, want a fresh 32-measurement session", tp)
	}
	if tp := run(16); !tp.FromCheckpoint || tp.Measurements != 16 {
		t.Fatalf("budget 16 rerun: plan %+v, want the checkpointed one", tp)
	}

	// Lines written before the budget, and then the tuner and seed, were
	// recorded serve nothing, not even the run that would match them.
	key := CheckpointKey{Model: workload.AlexNet, GPU: hwspec.TitanXp, Tuner: "random",
		Task: task.Name(), Seed: 3, Budget: tuner.Budget{MaxMeasurements: 16}}
	if _, ok := ck.Lookup(key); !ok {
		t.Fatalf("the budget-16 run is not checkpointed under %+v", key)
	}
	for _, line := range []string{
		`{"model":"alexnet","gpu":"titan-xp","task":{"task":"` + task.Name() + `","gflops":1}}`,
		`{"model":"alexnet","gpu":"titan-xp","budget":{"MaxMeasurements":16,"MaxGPUSeconds":0,"Patience":0,"Epsilon":0},"task":{"task":"` + task.Name() + `","gflops":1}}`,
	} {
		legacy := filepath.Join(t.TempDir(), "legacy.jsonl")
		if err := os.WriteFile(legacy, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		old, err := OpenCheckpoint(legacy)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := old.Lookup(key); ok {
			t.Fatalf("a line without a budget, tuner or seed served a lookup: %s", line)
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTuneTaskCheckpointKeysOnTunerAndSeed reruns a checkpointed task
// with another tuner and with another task seed: each must tune afresh,
// not be served the first run's plan, while a rerun of the first run
// still resumes.
func TestTuneTaskCheckpointKeysOnTunerAndSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	task := subset(t, workload.AlexNet, 2)[0]
	run := func(tn tuner.Tuner, seed int64) TaskPlan {
		t.Helper()
		cfg := Config{
			Model:  workload.AlexNet,
			Budget: tuner.Budget{MaxMeasurements: 16},
			NewTuner: func(workload.Task, string) (tuner.Tuner, error) {
				return tn, nil
			},
			Checkpoint: ck,
		}
		tp, err := TuneTask(&cfg, measure.MustNewLocal(hwspec.TitanXp), task, rng.New(seed))
		if err != nil || tp.Failed {
			t.Fatalf("%s seed %d: plan %+v, err %v", tn.Name(), seed, tp, err)
		}
		return tp
	}
	first := run(tuner.Random{}, 3)
	if first.FromCheckpoint {
		t.Fatalf("first run resumed from an empty checkpoint: %+v", first)
	}
	if tp := run(tuner.AutoTVM{}, 3); tp.FromCheckpoint {
		t.Fatalf("autotvm rerun was served the random tuner's plan %+v", tp)
	}
	if tp := run(tuner.Random{}, 4); tp.FromCheckpoint {
		t.Fatalf("seed-4 rerun was served the seed-3 plan %+v", tp)
	}
	if tp := run(tuner.Random{}, 3); !tp.FromCheckpoint || tp.ConfigIndex != first.ConfigIndex {
		t.Fatalf("rerun of the first run: plan %+v, want the checkpointed %+v", tp, first)
	}
}
