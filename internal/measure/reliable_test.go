package measure_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func testTask(t testing.TB) (workload.Task, *space.Space, []int64) {
	t.Helper()
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.MustForTask(task)
	g := rng.New(1)
	return task, sp, []int64{sp.RandomIndex(g), sp.RandomIndex(g)}
}

// scripted is a Measurer whose per-call outcomes are programmed up front;
// after the script runs out it repeats the final entry.
type scripted struct {
	name    string
	mu      sync.Mutex
	calls   int
	errs    []error // nil entry = success
	results []gpusim.Result
}

func (s *scripted) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	if i >= len(s.errs) {
		i = len(s.errs) - 1
	}
	if err := s.errs[i]; err != nil {
		return nil, err
	}
	out := make([]gpusim.Result, len(idxs))
	for j := range out {
		out[j] = gpusim.Result{Valid: true, GFLOPS: 100, TimeMS: 1, CostSec: 1}
	}
	if s.results != nil {
		copy(out, s.results)
	}
	return out, nil
}

func (s *scripted) DeviceName() string { return s.name }

func (s *scripted) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// noSleep records requested backoffs instead of sleeping.
type noSleep struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (n *noSleep) sleep(d time.Duration) {
	n.mu.Lock()
	n.slept = append(n.slept, d)
	n.mu.Unlock()
}

func TestReliableRetriesUntilSuccess(t *testing.T) {
	task, sp, idxs := testTask(t)
	boom := errors.New("flaky link")
	s := &scripted{name: "board", errs: []error{boom, boom, nil}}
	ns := &noSleep{}
	r, err := measure.NewReliable(measure.ReliableConfig{
		MaxAttempts: 3, BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond,
		Seed: 1, Sleep: ns.sleep,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatalf("retries did not cure transient failures: %v", err)
	}
	if len(results) != len(idxs) {
		t.Fatalf("%d results", len(results))
	}
	st := r.Stats()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats %+v, want 3 attempts / 2 retries", st)
	}
	if len(ns.slept) != 2 {
		t.Fatalf("%d backoffs recorded", len(ns.slept))
	}
	// Capped exponential with jitter in [0.5, 1.0)×.
	if ns.slept[0] < 5*time.Millisecond || ns.slept[0] >= 10*time.Millisecond {
		t.Fatalf("first backoff %v outside [5ms, 10ms)", ns.slept[0])
	}
	if ns.slept[1] < 10*time.Millisecond || ns.slept[1] >= 20*time.Millisecond {
		t.Fatalf("second backoff %v outside [10ms, 20ms)", ns.slept[1])
	}
}

func TestReliableBackoffDeterministic(t *testing.T) {
	task, sp, idxs := testTask(t)
	run := func() []time.Duration {
		s := &scripted{name: "board", errs: []error{errors.New("x"), errors.New("x"), errors.New("x"), nil}}
		ns := &noSleep{}
		r, err := measure.NewReliable(measure.ReliableConfig{
			MaxAttempts: 4, Seed: 7, Sleep: ns.sleep, BreakerThreshold: 100,
		}, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MeasureBatch(task, sp, idxs); err != nil {
			t.Fatal(err)
		}
		return ns.slept
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("%d backoffs", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff %d differs across identically-seeded runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReliableExhaustionSurfacesLastError(t *testing.T) {
	task, sp, idxs := testTask(t)
	last := errors.New("board unreachable: final straw")
	s := &scripted{name: "board", errs: []error{errors.New("first"), errors.New("second"), last}}
	r, err := measure.NewReliable(measure.ReliableConfig{
		MaxAttempts: 3, BreakerThreshold: 100, Sleep: func(time.Duration) {},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.MeasureBatch(task, sp, idxs)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !errors.Is(err, last) {
		t.Fatalf("last underlying error lost: %v", err)
	}
	if r.Stats().Exhausted != 1 {
		t.Fatalf("stats %+v", r.Stats())
	}
}

func TestReliableBreakerOpensSkipsAndRecovers(t *testing.T) {
	task, sp, idxs := testTask(t)
	fail := errors.New("dead board")
	s := &scripted{name: "board", errs: []error{fail}}
	clock := time.Unix(1000, 0)
	cooldown := 10 * time.Second
	r, err := measure.NewReliable(measure.ReliableConfig{
		MaxAttempts: 2, BreakerThreshold: 2, BreakerCooldown: cooldown,
		Sleep: func(time.Duration) {},
		Now:   func() time.Time { return clock },
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	// Batch 1: two failed attempts trip the breaker.
	if _, err := r.MeasureBatch(task, sp, idxs); err == nil {
		t.Fatal("failing backend succeeded")
	}
	if got := r.BreakerStates(); got[0] != measure.BreakerOpen {
		t.Fatalf("breaker %v after threshold failures", got[0])
	}
	// Batch 2: while open, the backend is skipped without being called.
	before := s.callCount()
	if _, err := r.MeasureBatch(task, sp, idxs); !errors.Is(err, measure.ErrBreakerOpen) {
		t.Fatalf("open breaker error = %v", err)
	}
	if s.callCount() != before {
		t.Fatal("open breaker still let a call through")
	}
	if r.Stats().BreakerSkips == 0 {
		t.Fatal("skip not counted")
	}
	// Batch 3: after cooldown a half-open probe runs; it fails → re-open.
	clock = clock.Add(cooldown + time.Second)
	if _, err := r.MeasureBatch(task, sp, idxs); err == nil {
		t.Fatal("failed probe reported success")
	}
	if s.callCount() != before+1 {
		t.Fatalf("probe made %d calls, want exactly 1", s.callCount()-before)
	}
	if got := r.BreakerStates(); got[0] != measure.BreakerOpen {
		t.Fatalf("breaker %v after failed probe", got[0])
	}
	// Batch 4: next cooldown expires, backend healed → probe closes it.
	clock = clock.Add(cooldown + time.Second)
	s.mu.Lock()
	s.errs = []error{nil}
	s.mu.Unlock()
	if _, err := r.MeasureBatch(task, sp, idxs); err != nil {
		t.Fatalf("healed backend still failing: %v", err)
	}
	if got := r.BreakerStates(); got[0] != measure.BreakerClosed {
		t.Fatalf("breaker %v after successful probe", got[0])
	}
	if r.Stats().BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (threshold + failed probe)", r.Stats().BreakerOpens)
	}
}

func TestReliableFailsOverToFallbackChain(t *testing.T) {
	task, sp, idxs := testTask(t)
	primary := &scripted{name: hwspec.TitanXp, errs: []error{errors.New("link down")}}
	fallback := measure.MustNewLocal(hwspec.TitanXp)
	r, err := measure.NewReliable(measure.ReliableConfig{
		MaxAttempts: 2, BreakerThreshold: 100, Sleep: func(time.Duration) {},
	}, primary, fallback)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	want, err := fallback.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("result %d not from fallback", i)
		}
	}
	if r.DeviceName() != hwspec.TitanXp {
		t.Fatalf("DeviceName = %q", r.DeviceName())
	}
	st := r.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d", st.Failovers)
	}
	foundEvent := false
	for _, e := range r.Events() {
		if e.Kind == "failover" {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Fatal("degradation not recorded in events")
	}
}

func TestReliableSanitizesCorruptResults(t *testing.T) {
	task, sp, idxs := testTask(t)
	s := &scripted{name: "board", errs: []error{nil}, results: []gpusim.Result{
		{Valid: true, GFLOPS: math.NaN(), TimeMS: 1, CostSec: 1},
		{Valid: true, GFLOPS: -50, TimeMS: 1, CostSec: 1},
	}}
	r, err := measure.NewReliable(measure.ReliableConfig{}, s)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Valid {
			t.Fatalf("corrupt result %d still valid: %+v", i, res)
		}
		if res.FailReason != measure.FailReasonSanitized {
			t.Fatalf("result %d FailReason = %q", i, res.FailReason)
		}
		if res.GFLOPS != 0 || res.TimeMS != 0 {
			t.Fatalf("poison values survived: %+v", res)
		}
	}
	if r.Stats().Sanitized != 2 {
		t.Fatalf("Sanitized = %d", r.Stats().Sanitized)
	}
}

func TestReliableSanitizesInjectedCorruption(t *testing.T) {
	task, sp, idxs := testTask(t)
	inj := faults.New(measure.MustNewLocal(hwspec.TitanXp), faults.Config{Seed: 3, CorruptRate: 1})
	r, err := measure.NewReliable(measure.ReliableConfig{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 8; call++ {
		results, err := r.MeasureBatch(task, sp, idxs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if math.IsNaN(res.GFLOPS) || math.IsInf(res.GFLOPS, 0) || res.GFLOPS < 0 || res.TimeMS < 0 {
				t.Fatalf("call %d result %d: poison leaked through sanitizer: %+v", call, i, res)
			}
		}
	}
	if inj.Stats().Corrupted > 0 && r.Stats().Sanitized == 0 {
		t.Fatal("corruption injected but nothing sanitized")
	}
}

// TestHungBatchFailsOverWithinDeadline is the acceptance scenario: an
// injected-latency "remote" hangs forever, the per-batch deadline cuts it
// off, and the batch is served by the local fallback instead of hanging
// the tuning session.
func TestHungBatchFailsOverWithinDeadline(t *testing.T) {
	task, sp, idxs := testTask(t)
	hung := faults.New(measure.MustNewLocal(hwspec.TitanXp),
		faults.Config{Seed: 1, HangRate: 1, Hang: time.Hour})
	fallback := measure.MustNewLocal(hwspec.TitanXp)
	r, err := measure.NewReliable(measure.ReliableConfig{
		BatchTimeout: 25 * time.Millisecond,
		MaxAttempts:  2,
		Sleep:        func(time.Duration) {},
	}, hung, fallback)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results, err := r.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatalf("hung primary was not failed over: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("session hung for %v despite deadline", elapsed)
	}
	if len(results) != len(idxs) {
		t.Fatalf("%d results", len(results))
	}
	st := r.Stats()
	if st.Timeouts == 0 {
		t.Fatalf("no timeouts recorded: %+v", st)
	}
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d", st.Failovers)
	}
}

// TestReliableConcurrentSessions hammers one Reliable from concurrent
// tuning sessions (the fleet scheduler's sessions share one Reliable per
// endpoint and GPU) — primarily a -race target.
func TestReliableConcurrentSessions(t *testing.T) {
	task, sp, idxs := testTask(t)
	other, err := workload.TaskByIndex(workload.ResNet18, 9)
	if err != nil {
		t.Fatal(err)
	}
	spO := space.MustForTask(other)
	inj := faults.New(measure.MustNewLocal(hwspec.TitanXp),
		faults.Config{Seed: 13, TransientErrorRate: 0.3})
	r, err := measure.NewReliable(measure.ReliableConfig{
		MaxAttempts: 6, BreakerThreshold: 1000, Seed: 13, Sleep: func(time.Duration) {},
	}, inj, measure.MustNewLocal(hwspec.TitanXp))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, batches = 8, 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, s, ix := task, sp, idxs
			if i%2 == 1 {
				tk, s, ix = other, spO, []int64{idxs[0] % spO.Size()}
			}
			for b := 0; b < batches; b++ {
				if _, err := r.MeasureBatch(tk, s, ix); err != nil {
					errCh <- fmt.Errorf("goroutine %d batch %d: %w", i, b, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := r.Stats().Batches; got != goroutines*batches {
		t.Fatalf("Batches = %d, want %d", got, goroutines*batches)
	}
}
