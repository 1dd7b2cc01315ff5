package fleet

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// batchDispatcher builds a scheduler over eps with every endpoint homed
// on one titan-xp shard, as Run would set it up, and returns the
// dispatcher of one session on it with the task and space it measures.
func batchDispatcher(t *testing.T, sc SchedulerConfig, eps []Endpoint) (*Scheduler, *dispatcher, workload.Task, *space.Space) {
	t.Helper()
	s, err := NewScheduler(sc, eps)
	if err != nil {
		t.Fatal(err)
	}
	s.assignEndpoints([][]string{{hwspec.TitanXp}})
	task := subset(t, workload.ResNet18, 7)[0]
	sp, err := space.ForTask(task)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.dispatcher(unit{gpu: hwspec.TitanXp, task: task}, nil), task, sp
}

// firstIndices is the batch [0, n).
func firstIndices(n int) []int64 {
	idxs := make([]int64, n)
	for i := range idxs {
		idxs[i] = int64(i)
	}
	return idxs
}

// measureDirect is what the batch must come back as, whichever endpoints
// served it.
func measureDirect(t *testing.T, task workload.Task, sp *space.Space, idxs []int64) []gpusim.Result {
	t.Helper()
	local, err := measure.NewLocal(hwspec.TitanXp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// With one endpoint there is nothing to spread a batch over: every chunk
// is as large as MaxChunk allows, on the first batch and after the
// endpoint has been observed.
func TestOneEndpointCutsMaxChunks(t *testing.T) {
	eps, _ := chaosEndpoints(endpointNames(1), faults.Healthy(1, 0))
	s, d, task, sp := batchDispatcher(t, SchedulerConfig{Reliable: fastReliable()}, eps)
	idxs := firstIndices(40)
	want := measureDirect(t, task, sp, idxs)
	for batch := 1; batch <= 2; batch++ {
		got, err := d.MeasureBatch(task, sp, idxs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: results differ from a direct measurement", batch)
		}
		// 40 configs in chunks of 16: 16 + 16 + 8.
		if st := s.Stats(); st.Chunks != 3*batch {
			t.Fatalf("batch %d: %d chunks in all, want %d", batch, st.Chunks, 3*batch)
		}
	}
}

// A lease scans the pool in place: no candidate slices, no sort.
func TestLeaseAllocatesNothing(t *testing.T) {
	eps, _ := chaosEndpoints(endpointNames(200), faults.Healthy(200, 0))
	s, d, _, _ := batchDispatcher(t, SchedulerConfig{Reliable: fastReliable()}, eps)
	for _, sl := range s.slots { // dialed, so every lease asks each breaker
		if _, err := sl.conn(d.gpu, s.sc.Reliable); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sl, _, idle := d.lease(nil)
		if sl == nil || idle != 200 {
			t.Fatalf("leased %v with %d idle, want an endpoint of 200 idle", sl, idle)
		}
		sl.release()
	})
	if allocs != 0 {
		t.Fatalf("lease allocates %v times per call", allocs)
	}
}

// An idle pool measures a batch in parallel: one config per endpoint,
// all at once, so the batch costs about one service time, not sixteen.
func TestIdlePoolSpreadsBatch(t *testing.T) {
	const n, service = 16, 5 * time.Millisecond
	eps, _ := chaosEndpoints(endpointNames(n), faults.Healthy(n, service))
	s, d, task, sp := batchDispatcher(t, SchedulerConfig{Reliable: fastReliable()}, eps)
	idxs := firstIndices(n)
	want := measureDirect(t, task, sp, idxs)
	// The first batch dials every endpoint; the second is timed on a
	// dialed pool whose endpoints all have a measured cost.
	for batch := 1; batch <= 2; batch++ {
		start := time.Now()
		got, err := d.MeasureBatch(task, sp, idxs)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: results differ from a direct measurement", batch)
		}
		if st := s.Stats(); st.Chunks != n*batch {
			t.Fatalf("batch %d: %d chunks in all, want %d", batch, st.Chunks, n*batch)
		}
		if batch == 2 && took >= 3*service {
			t.Fatalf("a %d-config batch over %d idle endpoints took %v, want under %v", n, n, took, 3*service)
		}
	}
}

// wedged is a board that ignores cancellation: every call takes the full
// delay, so an attempt the dispatcher has given up on stays in flight.
type wedged struct {
	measure.Measurer
	delay time.Duration
}

func (w wedged) MeasureBatchContext(_ context.Context, task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	time.Sleep(w.delay)
	return w.Measurer.MeasureBatch(task, sp, idxs)
}

// A batch whose chunks all went to wedged boards returns as soon as the
// speculative twins on healthy boards finish, with the wedged attempts
// still in flight. Each of them must still report into the batch's event
// buffer and exit once it wakes: the goroutine count settles back to
// where it was.
func TestStragglerAttemptsExitAfterBatchReturns(t *testing.T) {
	const n = 16
	var eps []Endpoint
	for i := 0; i < 2*n; i++ {
		slow := i < n // names sort the wedged boards first, so they lease first
		name := fmt.Sprintf("b-%02d", i)
		if slow {
			name = fmt.Sprintf("a-%02d", i)
		}
		eps = append(eps, Endpoint{Name: name, Dial: func(gpu string) (measure.Measurer, error) {
			local, err := measure.NewLocal(gpu)
			if err != nil || !slow {
				return local, err
			}
			return wedged{Measurer: local, delay: 200 * time.Millisecond}, nil
		}})
	}
	s, d, task, sp := batchDispatcher(t, SchedulerConfig{
		Speculate: true, SpeculateAfter: time.Millisecond, Reliable: fastReliable(),
	}, eps)
	idxs := firstIndices(n)
	want := measureDirect(t, task, sp, idxs)

	base := runtime.NumGoroutine()
	got, err := d.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results differ from a direct measurement")
	}
	if st := s.Stats(); st.SpeculativeWins == 0 {
		t.Fatalf("no twin won: %+v", st)
	}
	if g := runtime.NumGoroutine(); g <= base {
		t.Fatalf("%d goroutines after the batch, %d before: no attempt was still in flight", g, base)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after the batch returned, %d before: an attempt never exited",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
