package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// fastReliable is the fail-fast endpoint policy the scheduler tests use:
// the dispatcher owns retries and rerouting, so each endpoint attempt
// fails immediately and breakers trip on the first error but recover
// quickly enough for short tests.
func fastReliable() measure.ReliableConfig {
	return measure.ReliableConfig{
		MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: 5 * time.Millisecond, Seed: 1,
	}
}

// chaosEndpoints builds n endpoints hosting every target, each dialing an
// in-process simulator wrapped in the scenario's churn schedule. The
// returned map records every Churn built, keyed by endpoint index, so
// tests can inspect per-endpoint call statistics.
func chaosEndpoints(names []string, sc faults.Scenario) ([]Endpoint, map[int][]*faults.Churn) {
	var mu sync.Mutex
	churns := make(map[int][]*faults.Churn)
	eps := make([]Endpoint, len(names))
	for i := range names {
		i := i
		eps[i] = Endpoint{
			Name: names[i],
			Dial: func(gpu string) (measure.Measurer, error) {
				local, err := measure.NewLocal(gpu)
				if err != nil {
					return nil, err
				}
				m := sc.Wrap(i, local)
				if ch, ok := m.(*faults.Churn); ok {
					mu.Lock()
					churns[i] = append(churns[i], ch)
					mu.Unlock()
				}
				return m, nil
			},
		}
	}
	return eps, churns
}

func endpointNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + "-ep"
		if i >= 26 {
			names[i] = names[i] + string(rune('0'+i/26))
		}
	}
	return names
}

func schedCfg(t *testing.T) Config {
	return Config{
		Model:    workload.ResNet18,
		Tasks:    subset(t, workload.ResNet18, 2, 13, 17),
		Budget:   tuner.Budget{MaxMeasurements: 32},
		NewTuner: randomTunerFactory,
	}
}

// referencePlans is the oracle of the determinism pins: every task of
// every target tuned one after another on a plain in-process simulator,
// with the scheduler's per-(gpu, task) randomness, then assembled. No
// scheduler, dispatcher, endpoint pool or Reliable wrapper is involved.
func referencePlans(t *testing.T, cfg Config, targets []string, seed int64) []*Plan {
	t.Helper()
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	g := rng.New(seed)
	plans := make([]*Plan, len(targets))
	for i, gpu := range targets {
		m, err := measure.NewLocal(gpu)
		if err != nil {
			t.Fatal(err)
		}
		tps := make([]TaskPlan, len(cfg.Tasks))
		for j, task := range cfg.Tasks {
			if tps[j], err = TuneTask(&cfg, m, task, g.Split("device/"+gpu).Split("fleet/"+task.Name())); err != nil {
				t.Fatal(err)
			}
		}
		plans[i] = assemblePlan(cfg.Model, gpu, cfg.Tasks, tps)
	}
	return plans
}

// The sharded scheduler must reproduce the reference plans exactly —
// same best configs, same accounting — for any shard count, session
// count, and steal setting, because tuning randomness is keyed by
// (gpu, task), not by scheduling.
func TestSchedulerMatchesFlatFleetAnyTopology(t *testing.T) {
	cfg := schedCfg(t)
	targets := append([]string(nil), hwspec.Targets...)
	want := referencePlans(t, cfg, targets, 11)

	for _, tc := range []struct {
		name string
		sc   SchedulerConfig
	}{
		{"per-target-shards", SchedulerConfig{Shards: 0, SessionsPerShard: 2}},
		{"one-shard", SchedulerConfig{Shards: 1, SessionsPerShard: 4, Steal: true}},
		{"two-shards-steal", SchedulerConfig{Shards: 2, SessionsPerShard: 1, Steal: true}},
		{"two-shards-speculate", SchedulerConfig{Shards: 2, SessionsPerShard: 3, Steal: true, Speculate: true}},
	} {
		tc.sc.Reliable = fastReliable()
		eps, _ := chaosEndpoints(endpointNames(6), faults.Healthy(6, 0))
		s, err := NewScheduler(tc.sc, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(cfg, targets, rng.New(11))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sharded plans differ from the reference loop", tc.name)
		}
	}
}

// Under every chaos scenario the scheduler must converge to byte-identical
// plans versus a fault-free run: availability faults change who measures,
// never what a measurement returns.
func TestSchedulerDeterministicUnderChaos(t *testing.T) {
	cfg := schedCfg(t)
	cfg.Tasks = subset(t, workload.ResNet18, 2, 17)
	targets := []string{hwspec.TitanXp, hwspec.RTX3090}
	want := referencePlans(t, cfg, targets, 23)

	const n = 10
	for _, scenario := range []faults.Scenario{
		faults.Flap(3, n, 0.3, 100*time.Microsecond, 15*time.Millisecond, 8*time.Millisecond),
		faults.Spike(4, n, 0.3, 100*time.Microsecond, 10*time.Millisecond, 3),
		faults.SlowDegrade(5, n, 0.3, 100*time.Microsecond, 300*time.Microsecond),
		faults.Crash(6, n, 0.2, 100*time.Microsecond, 3),
	} {
		eps, _ := chaosEndpoints(endpointNames(n), scenario)
		s, err := NewScheduler(SchedulerConfig{
			Shards: 2, SessionsPerShard: 2, Steal: true, Speculate: true,
			SpeculateAfter: 5 * time.Millisecond, Reliable: fastReliable(),
		}, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(cfg, targets, rng.New(23))
		if err != nil {
			t.Fatalf("%s: %v", scenario.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: chaos changed the best-found plans", scenario.Name)
		}
		for _, p := range got {
			if !p.Complete() {
				t.Fatalf("%s: plan for %s incomplete under chaos", scenario.Name, p.GPU)
			}
		}
	}
}

// A shard whose only endpoint dies must finish by borrowing endpoints
// from the other shard when stealing is on, and fail its tasks (partial
// plan, not a fatal error) when it is off.
func TestSchedulerStealsEndpointsAcrossShards(t *testing.T) {
	cfg := schedCfg(t)
	cfg.Tasks = subset(t, workload.ResNet18, 7)
	targets := []string{hwspec.TitanXp, hwspec.RTX3090}
	want := referencePlans(t, cfg, targets, 31)

	build := func(steal bool) (*Scheduler, error) {
		dying := Endpoint{
			Name:  "a-dying",
			Hosts: []string{hwspec.TitanXp},
			Dial: func(gpu string) (measure.Measurer, error) {
				local, err := measure.NewLocal(gpu)
				if err != nil {
					return nil, err
				}
				return faults.NewChurn(local, faults.ChurnConfig{
					Phases: []faults.Phase{{Calls: 1}, {Down: true}},
				}), nil
			},
		}
		healthy := Endpoint{
			Name:  "b-healthy",
			Hosts: []string{hwspec.TitanXp, hwspec.RTX3090},
			Dial:  func(gpu string) (measure.Measurer, error) { return measure.NewLocal(gpu) },
		}
		return NewScheduler(SchedulerConfig{
			Shards: 2, SessionsPerShard: 1, Steal: steal,
			LeaseTimeout: 50 * time.Millisecond, Reliable: fastReliable(),
		}, []Endpoint{dying, healthy})
	}

	s, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(cfg, targets, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stealing changed the best-found plans")
	}
	if st := s.Stats(); st.EndpointSteals == 0 {
		t.Fatalf("completed without borrowing endpoints: %+v", st)
	}

	s, err = build(false)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s.Run(cfg, targets, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	var titan *Plan
	for _, p := range got {
		if p.GPU == hwspec.TitanXp {
			titan = p
		}
	}
	if titan.FailedTasks == 0 {
		t.Fatal("steal=false run completed titan-xp despite its only endpoint being dead")
	}
}

// A stolen-from endpoint whose device recovers must be re-admitted
// through the breaker's half-open probe and receive work again.
func TestSchedulerReadmitsRecoveredEndpoint(t *testing.T) {
	cfg := schedCfg(t)
	cfg.Tasks = subset(t, workload.ResNet18, 7)
	cfg.Budget = tuner.Budget{MaxMeasurements: 96}
	targets := []string{hwspec.TitanXp}

	var flappy *faults.Churn
	eps := []Endpoint{
		{
			Name: "a-flappy",
			Dial: func(gpu string) (measure.Measurer, error) {
				local, err := measure.NewLocal(gpu)
				if err != nil {
					return nil, err
				}
				flappy = faults.NewChurn(local, faults.ChurnConfig{
					// Up for one call, down for the next four, then healthy
					// forever: the breaker must trip, probe, and re-admit.
					Phases: []faults.Phase{{Calls: 1}, {Calls: 4, Down: true}, {}},
				})
				return flappy, nil
			},
		},
		{
			Name: "b-steady",
			Dial: func(gpu string) (measure.Measurer, error) {
				local, err := measure.NewLocal(gpu)
				if err != nil {
					return nil, err
				}
				// Slow but healthy, so leases still favour the flappy
				// endpoint once it recovers.
				return faults.NewChurn(local, faults.ChurnConfig{PerMeasurement: 200 * time.Microsecond}), nil
			},
		},
	}
	s, err := NewScheduler(SchedulerConfig{
		Shards: 1, SessionsPerShard: 1, Steal: true,
		MaxChunk: 4, Reliable: fastReliable(),
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePlans(t, cfg, targets, 41)
	got, err := s.Run(cfg, targets, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovery run changed the best-found plans")
	}

	conn := s.slots[0].conns[hwspec.TitanXp]
	if conn == nil {
		t.Fatal("flappy endpoint was never dialed")
	}
	if st := conn.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("breaker never opened on the flappy endpoint: %+v", st)
	}
	if !conn.Ready() {
		t.Fatal("recovered endpoint not Ready at end of run")
	}
	if st := flappy.Stats(); st.Calls <= 5 {
		t.Fatalf("recovered endpoint got only %d calls: never re-admitted after the probe", st.Calls)
	}
}

// tearCheckpointTail simulates a kill mid-append: it truncates the file
// inside the final JSONL record and returns the task name that record
// held, so the test knows which task must be re-measured.
func tearCheckpointTail(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(data, "\n")
	cut := bytes.LastIndexByte(trimmed, '\n') + 1
	last := trimmed[cut:]
	var cl struct {
		Task TaskPlan `json:"task"`
	}
	if err := json.Unmarshal(last, &cl); err != nil {
		t.Fatalf("parse last checkpoint line: %v", err)
	}
	// Keep roughly half the record: invalid JSON, no trailing newline.
	if err := os.WriteFile(path, data[:cut+len(last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return cl.Task.TaskName
}

// Satellite: a checkpoint whose writer was killed mid-append must resume
// by skipping the torn record and re-queueing (not dropping) that task.
func TestSchedulerResumesTornCheckpoint(t *testing.T) {
	cfg := schedCfg(t)
	targets := []string{hwspec.TitanXp}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	eps, _ := chaosEndpoints(endpointNames(3), faults.Healthy(3, 0))
	s, err := NewScheduler(SchedulerConfig{Shards: 1, Steal: true, Reliable: fastReliable()}, eps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(cfg, targets, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	torn := tearCheckpointTail(t, path)

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != len(cfg.Tasks)-1 {
		t.Fatalf("resumed checkpoint holds %d tasks, want %d", ck2.Len(), len(cfg.Tasks)-1)
	}
	cfg.Checkpoint = ck2

	counters := make(map[string]*countingMeasurer)
	var mu sync.Mutex
	eps2 := []Endpoint{{
		Name: "a-ep",
		Dial: func(gpu string) (measure.Measurer, error) {
			local, err := measure.NewLocal(gpu)
			if err != nil {
				return nil, err
			}
			c := newCounting(local)
			mu.Lock()
			counters[gpu] = c
			mu.Unlock()
			return c, nil
		},
	}}
	s2, err := NewScheduler(SchedulerConfig{Shards: 1, Reliable: fastReliable()}, eps2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Run(cfg, targets, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ResumedTasks != len(cfg.Tasks)-1 {
		t.Fatalf("resumed %d tasks, want %d", got[0].ResumedTasks, len(cfg.Tasks)-1)
	}
	measured := counters[hwspec.TitanXp].measured()
	if measured[torn] == 0 {
		t.Fatalf("torn task %s was dropped instead of re-measured", torn)
	}
	for task, n := range measured {
		if task != torn && n > 0 {
			t.Fatalf("intact task %s re-measured %d times", task, n)
		}
	}
	// The re-measured task converges to the same config as the first run.
	for i, tp := range got[0].Tasks {
		w := want[0].Tasks[i]
		if tp.ConfigIndex != w.ConfigIndex || tp.GFLOPS != w.GFLOPS || tp.TimeMS != w.TimeMS {
			t.Fatalf("task %s diverged across resume: %+v vs %+v", tp.TaskName, tp, w)
		}
	}
}

// Crash-during-checkpoint end to end: session 1 loses its endpoints
// mid-run and its checkpoint tail is torn; session 2 on healthy hardware
// must converge to exactly the fault-free plans.
func TestSchedulerCrashCheckpointScenarioConverges(t *testing.T) {
	cfg := schedCfg(t)
	targets := []string{hwspec.TitanXp, hwspec.RTX3090}
	want := referencePlans(t, cfg, targets, 61)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	// Every endpoint dies after a handful of calls: some tasks finish
	// and checkpoint, the rest fail when the pool is exhausted.
	crashy := faults.Scenario{Name: "all-crash", Configs: []faults.ChurnConfig{
		{Phases: []faults.Phase{{Calls: 6}, {Down: true}}},
		{Phases: []faults.Phase{{Calls: 9}, {Down: true}}},
		{Phases: []faults.Phase{{Calls: 12}, {Down: true}}},
	}}
	eps, _ := chaosEndpoints(endpointNames(3), crashy)
	s, err := NewScheduler(SchedulerConfig{
		Shards: 2, SessionsPerShard: 2, Steal: true,
		LeaseTimeout: 30 * time.Millisecond, Reliable: fastReliable(),
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(cfg, targets, rng.New(61)); err != nil {
		t.Fatal(err)
	}
	ckLen := ck.Len()
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if ckLen > 0 {
		tearCheckpointTail(t, path)
	}

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	cfg.Checkpoint = ck2
	eps2, _ := chaosEndpoints(endpointNames(3), faults.Healthy(3, 0))
	s2, err := NewScheduler(SchedulerConfig{
		Shards: 2, SessionsPerShard: 2, Steal: true, Reliable: fastReliable(),
	}, eps2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Run(cfg, targets, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if !p.Complete() {
			t.Fatalf("plan for %s incomplete after resume", p.GPU)
		}
		for j, tp := range p.Tasks {
			w := want[i].Tasks[j]
			if tp.ConfigIndex != w.ConfigIndex || tp.GFLOPS != w.GFLOPS || tp.TimeMS != w.TimeMS {
				t.Fatalf("%s/%s diverged from the fault-free run", p.GPU, tp.TaskName)
			}
		}
	}
}

// A straggling endpoint must not stall a batch: the chunk is re-issued
// speculatively and the faster twin's result wins.
func TestSchedulerSpeculatesOnStragglers(t *testing.T) {
	cfg := schedCfg(t)
	cfg.Tasks = subset(t, workload.ResNet18, 7)
	targets := []string{hwspec.TitanXp}
	want := referencePlans(t, cfg, targets, 71)

	slow := faults.Scenario{Name: "straggler", Configs: []faults.ChurnConfig{
		{Phases: []faults.Phase{{Delay: 500 * time.Millisecond}}}, // a-ep: everything straggles
		{}, // b-ep: healthy
	}}
	eps, _ := chaosEndpoints(endpointNames(2), slow)
	s, err := NewScheduler(SchedulerConfig{
		Shards: 1, SessionsPerShard: 1, Steal: true, Speculate: true,
		SpeculateAfter: 3 * time.Millisecond, Reliable: fastReliable(),
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := s.Run(cfg, targets, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("speculation changed the best-found plans")
	}
	st := s.Stats()
	if st.Speculations == 0 || st.SpeculativeWins == 0 {
		t.Fatalf("straggler never twinned: %+v", st)
	}
	// 32 measurements at 500ms per straggled chunk would take many
	// seconds un-twinned; speculation must keep the run well under that.
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("run took %v despite speculation", e)
	}
}

func TestPartitionTargetsBalancedAndDeterministic(t *testing.T) {
	targets := append([]string(nil), hwspec.Targets...)
	a := partitionTargets(targets, 2)
	b := partitionTargets(targets, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partition not deterministic")
	}
	if len(a) != 2 || len(a[0]) != 2 || len(a[1]) != 2 {
		t.Fatalf("unbalanced shards: %v", a)
	}
	seen := map[string]bool{}
	for _, g := range a {
		for _, name := range g {
			seen[name] = true
		}
	}
	if len(seen) != len(targets) {
		t.Fatalf("partition lost targets: %v", a)
	}
	if p := partitionTargets(targets, 0); len(p) != len(targets) {
		t.Fatalf("Shards<=0 should shard per target, got %v", p)
	}
	if p := partitionTargets(targets, 99); len(p) != len(targets) {
		t.Fatalf("oversized shard count not clamped: %v", p)
	}
}

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(SchedulerConfig{}, nil); err == nil {
		t.Fatal("empty endpoint pool accepted")
	}
	if _, err := NewScheduler(SchedulerConfig{}, []Endpoint{{Name: "x"}}); err == nil {
		t.Fatal("endpoint without Dial accepted")
	}
}
