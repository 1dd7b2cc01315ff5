package fleet

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func subset(t *testing.T, model string, indices ...int) []workload.Task {
	t.Helper()
	var out []workload.Task
	for _, i := range indices {
		task, err := workload.TaskByIndex(model, i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, task)
	}
	return out
}

func randomTunerFactory(task workload.Task, gpu string) (tuner.Tuner, error) {
	return tuner.Random{BatchSize: 16}, nil
}

func TestTuneModelAssemblesPlan(t *testing.T) {
	cfg := Config{
		Model:           workload.ResNet18,
		Tasks:           subset(t, workload.ResNet18, 2, 13, 17), // conv + its winograd twin + dense
		Budget:          tuner.Budget{MaxMeasurements: 48},
		NewTuner:        randomTunerFactory,
		GenerateKernels: true,
	}
	m := measure.MustNewLocal(hwspec.TitanXp)
	plan, err := TuneModel(cfg, m, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Model != workload.ResNet18 || plan.GPU != hwspec.TitanXp {
		t.Fatalf("labels %q %q", plan.Model, plan.GPU)
	}
	if len(plan.Tasks) != 3 {
		t.Fatalf("planned %d tasks", len(plan.Tasks))
	}
	if plan.Measurements != 3*48 {
		t.Fatalf("measurements %d want %d", plan.Measurements, 3*48)
	}
	if plan.LatencyMS <= 0 || plan.GPUSeconds <= 0 {
		t.Fatalf("latency %g gpu %g", plan.LatencyMS, plan.GPUSeconds)
	}
	for _, tp := range plan.Tasks {
		if tp.GFLOPS <= 0 || tp.ConfigIndex < 0 {
			t.Fatalf("empty task plan %+v", tp)
		}
		if !strings.Contains(tp.Kernel, "__global__") {
			t.Fatalf("task %s missing kernel source", tp.TaskName)
		}
		if tp.Schedule == "" {
			t.Fatal("missing schedule description")
		}
	}
	// Latency picks min(direct, winograd) for the shared conv shape:
	// it must be ≤ the direct conv's own contribution plus dense.
	var direct, wino, dense TaskPlan
	for _, tp := range plan.Tasks {
		switch tp.TaskIndex {
		case 2:
			direct = tp
		case 13:
			wino = tp
		case 17:
			dense = tp
		}
	}
	faster := direct.TimeMS
	if wino.TimeMS < faster {
		faster = wino.TimeMS
	}
	want := faster*float64(direct.Repeats) + dense.TimeMS*float64(dense.Repeats)
	if diff := plan.LatencyMS - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("latency %g want %g", plan.LatencyMS, want)
	}
}

func TestTuneModelDeterministicDespiteParallelism(t *testing.T) {
	cfg := Config{
		Model:       workload.AlexNet,
		Tasks:       subset(t, workload.AlexNet, 3, 10),
		Budget:      tuner.Budget{MaxMeasurements: 32},
		NewTuner:    randomTunerFactory,
		Parallelism: 4,
	}
	m := measure.MustNewLocal(hwspec.RTX3090)
	a, err := TuneModel(cfg, m, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 1
	b, err := TuneModel(cfg, m, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyMS != b.LatencyMS || a.Measurements != b.Measurements {
		t.Fatalf("parallelism changed results: %+v vs %+v", a, b)
	}
	for i := range a.Tasks {
		if a.Tasks[i].ConfigIndex != b.Tasks[i].ConfigIndex {
			t.Fatalf("task %d config differs across parallelism", i)
		}
	}
}

func TestTuneModelValidation(t *testing.T) {
	m := measure.MustNewLocal(hwspec.TitanXp)
	if _, err := TuneModel(Config{Model: workload.AlexNet}, m, rng.New(1)); err == nil {
		t.Fatal("missing NewTuner accepted")
	}
	if _, err := TuneModel(Config{Model: "lenet", NewTuner: randomTunerFactory}, m, rng.New(1)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestTuneFleetAcrossGPUs(t *testing.T) {
	cfg := Config{
		Model:    workload.ResNet18,
		Tasks:    subset(t, workload.ResNet18, 7),
		Budget:   tuner.Budget{MaxMeasurements: 32},
		NewTuner: randomTunerFactory,
	}
	gpus := []string{hwspec.TitanXp, hwspec.RTX3090}
	plans, err := TuneFleet(cfg, gpus, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("%d plans", len(plans))
	}
	for i, p := range plans {
		if p.GPU != gpus[i] {
			t.Fatalf("plan %d GPU %q want %q", i, p.GPU, gpus[i])
		}
	}
	// The newer GPU should run the layer faster at its best config.
	if plans[1].LatencyMS >= plans[0].LatencyMS {
		t.Fatalf("rtx-3090 latency %g not better than titan-xp %g",
			plans[1].LatencyMS, plans[0].LatencyMS)
	}
	if _, err := TuneFleet(cfg, []string{"bogus-gpu"}, rng.New(9)); err == nil {
		t.Fatal("unknown GPU accepted")
	}
}

func TestPlanSaveLoad(t *testing.T) {
	cfg := Config{
		Model:    workload.AlexNet,
		Tasks:    subset(t, workload.AlexNet, 10),
		Budget:   tuner.Budget{MaxMeasurements: 16},
		NewTuner: randomTunerFactory,
	}
	m := measure.MustNewLocal(hwspec.TitanXp)
	plan, err := TuneModel(cfg, m, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != plan.Model || got.LatencyMS != plan.LatencyMS || len(got.Tasks) != len(plan.Tasks) {
		t.Fatalf("round trip mangled plan: %+v", got)
	}
	if _, err := LoadPlan(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Fatal("missing plan accepted")
	}
}

// TestAssembleLatencyTaskOrder pins the latency sum to first-seen task
// order. The shape times make float addition order visible: in task order
// (1e16 + 1) − 1e16 rounds to 0, while any other order gives 1, so a
// map-order sum differs between calls.
func TestAssembleLatencyTaskOrder(t *testing.T) {
	times := []float64{1e16, 1, -1e16}
	var tasks []workload.Task
	var plans []TaskPlan
	for i, ms := range times {
		tasks = append(tasks, workload.Task{Index: i + 1, Kind: workload.Conv2D,
			Conv: workload.ConvShape{Batch: 1, InC: i + 1, OutC: 8, H: 8, W: 8, Kernel: 3, Stride: 1}, Repeats: 1})
		plans = append(plans, TaskPlan{TaskIndex: i + 1, TimeMS: ms})
	}
	want := 0.0
	for _, ms := range times {
		want += ms
	}
	for i := 0; i < 50; i++ {
		if got := assembleLatency(tasks, plans); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: assembleLatency = %v want the task-order sum %v", i, got, want)
		}
	}
}
