package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

var (
	tkOnce   sync.Once
	tkShared *core.Toolkit
	tkErr    error
)

// testToolkit trains one small shared toolkit (the internal/core test
// recipe) so server tests measure service behavior, not training time.
func testToolkit(t testing.TB) *core.Toolkit {
	t.Helper()
	tkOnce.Do(func() {
		var tasks []workload.Task
		for _, ref := range []struct {
			model string
			l     int
		}{
			{workload.ResNet18, 4}, {workload.ResNet18, 5}, {workload.ResNet18, 7},
			{workload.ResNet18, 8}, {workload.ResNet18, 10}, {workload.ResNet18, 13},
			{workload.ResNet18, 15}, {workload.ResNet18, 17},
			{workload.AlexNet, 2}, {workload.AlexNet, 3}, {workload.AlexNet, 8},
			{workload.AlexNet, 11}, {workload.VGG16, 8}, {workload.VGG16, 17},
		} {
			task, err := workload.TaskByIndex(ref.model, ref.l)
			if err != nil {
				tkErr = err
				return
			}
			tasks = append(tasks, task)
		}
		tkShared, tkErr = core.TrainToolkit(hwspec.TitanXp, core.ToolkitConfig{
			TrainGPUs: []string{"gtx-1080", "gtx-1080-ti", "rtx-2070", "rtx-2080",
				"rtx-2080-ti", "titan-rtx", "rtx-3070", "rtx-3080"},
			PriorTasks: tasks,
			Prior: prior.TrainConfig{
				Dataset: prior.DatasetConfig{SamplesPerTask: 150, TopK: 16},
				Epochs:  200,
			},
			MetaGPUs: 2,
		}, rng.New(1234))
	})
	if tkErr != nil {
		t.Fatal(tkErr)
	}
	return tkShared
}

// fixedToolkits hands every job the shared test toolkit; the one-shot
// references in these tests use the same instance, so parity assertions
// compare tuning discipline, not training cost.
type fixedToolkits struct{ tk *core.Toolkit }

func (f fixedToolkits) Toolkit(gpu string, seed int64) (*core.Toolkit, error) {
	return f.tk, nil
}

// slowMeasurer delays each batch so tests can reliably catch a session
// mid-run (drain, preemption). Results are unchanged.
type slowMeasurer struct {
	inner measure.Measurer
	delay time.Duration
}

func (s slowMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	time.Sleep(s.delay)
	return s.inner.MeasureBatch(task, sp, idxs)
}
func (s slowMeasurer) DeviceName() string { return s.inner.DeviceName() }

// gateMeasurer blocks every batch until the gate closes — a job frozen
// mid-step, for admission and cancelation tests.
type gateMeasurer struct {
	inner measure.Measurer
	gate  chan struct{}
}

func (g gateMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	<-g.gate
	return g.inner.MeasureBatch(task, sp, idxs)
}
func (g gateMeasurer) DeviceName() string { return g.inner.DeviceName() }

func newTestServer(t testing.TB, dir string, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		StateDir: dir,
		Sessions: 1,
		Toolkits: fixedToolkits{testToolkit(t)},
		Log:      io.Discard,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, "http://" + addr
}

func submitJob(t testing.TB, base string, spec JobSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	return ack.ID
}

func getJob(t testing.TB, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t testing.TB, base, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		if v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// collectEvents streams the job's SSE feed to completion, returning the
// raw data payloads in order.
func collectEvents(t testing.TB, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", resp.Status)
	}
	var out []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			out = append(out, data)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// oneShotResult runs the same spec through the direct library path with
// cmd/glimpse's seed discipline — the parity reference.
func oneShotResult(t testing.TB, spec JobSpec) *tuner.Result {
	t.Helper()
	tk := testToolkit(t)
	norm := spec
	norm.normalize(192)
	task, err := workload.TaskByIndex(norm.Model, norm.TaskIndex)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.MustForTask(task)
	res, err := tk.Tuner().Tune(task, sp, measure.MustNewLocal(norm.GPU),
		norm.budget(), rng.New(norm.Seed).Split("tune/"+task.Name()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func resultBytes(t testing.TB, res *tuner.Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func drainNow(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServeSubmitStreamResult is the end-to-end contract: submit over
// HTTP, stream SSE progress to completion, fetch the result — and the
// result is byte-identical to a one-shot library run of the same spec
// and seed.
func TestServeSubmitStreamResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48}
	s, base := newTestServer(t, t.TempDir(), nil)
	defer drainNow(t, s)

	id := submitJob(t, base, spec)
	events := collectEvents(t, base, id) // blocks until the stream closes

	if len(events) < 3 {
		t.Fatalf("expected state+steps+result events, got %d: %v", len(events), events)
	}
	var first ProgressEvent
	if err := json.Unmarshal([]byte(events[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != "state" || first.State != string(StateQueued) || first.Seq != 1 {
		t.Fatalf("first event = %s", events[0])
	}
	steps := 0
	for i, raw := range events {
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d (stream must be gapless)", i, ev.Seq)
		}
		if ev.Kind == "step" {
			steps++
		}
	}
	if steps == 0 {
		t.Fatal("no step events streamed")
	}

	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	var got tuner.Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := oneShotResult(t, spec)
	if a, b := resultBytes(t, want), resultBytes(t, &got); !bytes.Equal(a, b) {
		t.Fatalf("served result diverged from one-shot run:\n want %s\n got  %s", a, b)
	}
}

// TestServeEventStreamDeterministic pins the diffable-stream contract:
// two fresh servers given the same job spec publish byte-identical SSE
// payload sequences.
func TestServeEventStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 17, MaxMeasurements: 48}
	var streams [2]string
	for i := range streams {
		s, base := newTestServer(t, t.TempDir(), nil)
		id := submitJob(t, base, spec)
		streams[i] = strings.Join(collectEvents(t, base, id), "\n")
		drainNow(t, s)
	}
	if streams[0] != streams[1] {
		t.Fatalf("event streams differ across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			streams[0], streams[1])
	}
}

// hookMeasurer calls before with each batch's config count, then
// measures.
type hookMeasurer struct {
	inner  measure.Measurer
	before func(configs int)
}

func (h hookMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	h.before(len(idxs))
	return h.inner.MeasureBatch(task, sp, idxs)
}
func (h hookMeasurer) DeviceName() string { return h.inner.DeviceName() }

func withHook(before func(configs int)) func(*Config) {
	return func(c *Config) {
		c.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
			m, err := measure.NewLocal(gpu)
			return hookMeasurer{inner: m, before: before}, func() error { return nil }, err
		}
	}
}

// assertDrainedQueued checks that a drained server journaled the job back
// to queued — not lost, not failed, not finished.
func assertDrainedQueued(t *testing.T, dir string) {
	t.Helper()
	st, recovered, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].State != StateQueued {
		t.Fatalf("drained journal: %+v", recovered)
	}
}

// TestServeDrainResume is the zero-lost-jobs contract: drain a server
// mid-session, restart on the same state directory, and the job resumes
// from its measurement-log checkpoint to a byte-identical result — even
// after a kill tore the log's last append and the torn log was appended
// to again.
func TestServeDrainResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	dir := t.TempDir()
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 29, MaxMeasurements: 96}
	s1, base1 := newTestServer(t, dir, withHook(func(int) { time.Sleep(30 * time.Millisecond) }))
	id := submitJob(t, base1, spec)

	// Wait until the session has checkpointed at least two batches, then
	// drain mid-job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		steps := 0
		for _, ev := range s1.hub.history(id) {
			if ev.Kind == "step" {
				steps++
			}
		}
		if steps >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainNow(t, s1)
	assertDrainedQueued(t, dir)

	// A kill mid-append leaves a partial entry. The drain left the log
	// batch-aligned, so the fragment sits at a batch boundary.
	measPath := (&store{dir: dir}).measPath(id)
	data, err := os.ReadFile(measPath)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := tlog.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, `{"seq":`+strconv.Itoa(len(logged)+1)+`,"device":"titan-xp","mod`...)
	if err := os.WriteFile(measPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// A second server replays the logged prefix and appends one new batch
	// past the fragment. Its first new batch waits until the workers are
	// canceled, so the session stops right after that step.
	arrived, gate := make(chan struct{}, 1), make(chan struct{})
	s2, _ := newTestServer(t, dir, withHook(func(int) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-gate
	}))
	select {
	case <-arrived:
	case <-time.After(60 * time.Second):
		t.Fatal("resumed session never measured past its log")
	}
	s2.mu.Lock()
	cancel := s2.cancelWorkers
	s2.mu.Unlock()
	cancel()
	close(gate)
	drainNow(t, s2)
	assertDrainedQueued(t, dir)

	// A third server finishes the job. It must replay the logged prefix
	// rather than rerun cold, and still match the uninterrupted run.
	var measured atomic.Int64
	s3, base3 := newTestServer(t, dir, withHook(func(n int) { measured.Add(int64(n)) }))
	defer drainNow(t, s3)
	v := waitTerminal(t, base3, id, 120*time.Second)
	if v.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", v.State, v.Detail)
	}
	want := oneShotResult(t, spec)
	if a, b := resultBytes(t, want), resultBytes(t, v.Result); !bytes.Equal(a, b) {
		t.Fatalf("resumed result diverged from uninterrupted run:\n want %s\n got  %s", a, b)
	}
	if n := measured.Load(); n >= int64(v.Result.Measurements) {
		t.Fatalf("final server measured %d of %d configs: the logged prefix was not replayed",
			n, v.Result.Measurements)
	}
}

// TestServePreemption: a higher-priority submission preempts the running
// lower-priority session at its next step boundary; the victim re-queues
// with its checkpoint and still finishes byte-identical.
func TestServePreemption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	specLow := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 29, MaxMeasurements: 96, Priority: 0}
	specHigh := JobSpec{Model: workload.ResNet18, TaskIndex: 8, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48, Priority: 5}
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
			m, err := measure.NewLocal(gpu)
			return slowMeasurer{inner: m, delay: 30 * time.Millisecond}, func() error { return nil }, err
		}
	})
	defer drainNow(t, s)

	lowID := submitJob(t, base, specLow)
	deadline := time.Now().Add(30 * time.Second)
	for {
		steps := 0
		for _, ev := range s.hub.history(lowID) {
			if ev.Kind == "step" {
				steps++
			}
		}
		if steps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("low-priority session made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	highID := submitJob(t, base, specHigh)

	// The victim's stream must show it yielding: running -> queued again.
	sawRequeue := false
	for !sawRequeue {
		for _, ev := range s.hub.history(lowID) {
			if ev.Kind == "state" && ev.State == string(StateQueued) && ev.Seq > 2 {
				sawRequeue = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("low-priority job was never preempted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	high := waitTerminal(t, base, highID, 120*time.Second)
	low := waitTerminal(t, base, lowID, 120*time.Second)
	if high.State != StateDone || low.State != StateDone {
		t.Fatalf("states after preemption: high=%s low=%s", high.State, low.State)
	}
	if a, b := resultBytes(t, oneShotResult(t, specLow)), resultBytes(t, low.Result); !bytes.Equal(a, b) {
		t.Fatalf("preempted job's result diverged:\n want %s\n got  %s", a, b)
	}
}

// TestServeCacheHit: with a tuned-config store attached, re-submitting a
// completed spec is served from the cache with zero new measurements.
func TestServeCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	dir := t.TempDir()
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48}
	s, base := newTestServer(t, dir, func(c *Config) {
		c.CachePath = dir + "/tuned.jsonl"
	})
	defer drainNow(t, s)

	first := waitTerminal(t, base, submitJob(t, base, spec), 120*time.Second)
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: state=%s cached=%v", first.State, first.Cached)
	}
	second := waitTerminal(t, base, submitJob(t, base, spec), 120*time.Second)
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second run: state=%s cached=%v (%s)", second.State, second.Cached, second.Detail)
	}
	if second.Result.Measurements != 0 {
		t.Fatalf("cache hit spent %d measurements", second.Result.Measurements)
	}
	if second.Result.BestGFLOPS != first.Result.BestGFLOPS {
		t.Fatalf("cache served %v GFLOPS, tuned run found %v",
			second.Result.BestGFLOPS, first.Result.BestGFLOPS)
	}
}

// TestServeAdmissionControl: a full queue answers 429 with Retry-After,
// and a draining server answers 503 with Retry-After.
func TestServeAdmissionControl(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tuning sessions")
	}
	gate := make(chan struct{})
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxQueued = 2
		c.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
			m, err := measure.NewLocal(gpu)
			return gateMeasurer{inner: m, gate: gate}, func() error { return nil }, err
		}
	})
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 1, MaxMeasurements: 32}

	// First job occupies the single worker (frozen at the gate)...
	running := submitJob(t, base, spec)
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, base, running).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...the next two fill the queue...
	submitJob(t, base, spec)
	queued := submitJob(t, base, spec)
	// ...and the fourth must be refused with backpressure.
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: %s", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Canceling a queued job frees its slot immediately.
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+queued, nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", cresp.Status)
	}
	if v := getJob(t, base, queued); v.State != StateCanceled {
		t.Fatalf("canceled job state = %s", v.State)
	}

	// Drain in the background (it blocks on the gated session), then a
	// submission during the drain gets 503 + Retry-After.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for {
		hresp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Draining bool `json:"draining"`
		}
		derr := json.NewDecoder(hresp.Body).Decode(&health)
		hresp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		if health.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dresp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %s", dresp.Status)
	}
	if dresp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	close(gate) // release the frozen session so the drain completes
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// TestQueueFairTenants pins the deficit-fair scheduler: with tenants at
// a 3:1 budget ratio and saturating demand, served GPU seconds converge
// on the same 3:1 split regardless of submission interleaving.
func TestQueueFairTenants(t *testing.T) {
	ledger := tuner.NewLedger()
	ledger.SetBudget("big", 300)
	ledger.SetBudget("small", 100)
	q := newQueue(ledger)
	for i := 0; i < 40; i++ {
		q.push(&Job{ID: jobID(2*i + 1), Spec: JobSpec{Tenant: "big"}, seq: 2*i + 1})
		q.push(&Job{ID: jobID(2*i + 2), Spec: JobSpec{Tenant: "small"}, seq: 2*i + 2})
	}
	served := map[string]float64{}
	for i := 0; i < 32; i++ {
		j := q.pop()
		if j == nil {
			t.Fatal("queue drained early")
		}
		// Each job costs 10 GPU seconds; charging as it runs is what
		// steers the next pick.
		ledger.Charge(j.Spec.Tenant, 10, 1)
		served[j.Spec.Tenant] += 10
	}
	ratio := served["big"] / served["small"]
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("served ratio %.2f (big=%v small=%v), want ~3.0 for a 3:1 budget split",
			ratio, served["big"], served["small"])
	}
}

// TestQueuePriorityWithinTenant: same tenant, higher priority pops
// first; ties break by arrival.
func TestQueuePriorityWithinTenant(t *testing.T) {
	q := newQueue(tuner.NewLedger())
	q.push(&Job{ID: "j1", Spec: JobSpec{Tenant: "a", Priority: 0}, seq: 1})
	q.push(&Job{ID: "j2", Spec: JobSpec{Tenant: "a", Priority: 5}, seq: 2})
	q.push(&Job{ID: "j3", Spec: JobSpec{Tenant: "a", Priority: 5}, seq: 3})
	var got []string
	for j := q.pop(); j != nil; j = q.pop() {
		got = append(got, j.ID)
	}
	if want := "j2,j3,j1"; strings.Join(got, ",") != want {
		t.Fatalf("pop order %v, want %s", got, want)
	}
}

// TestJobSpecValidation: malformed specs are refused before they reach
// the queue.
func TestJobSpecValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	s, base := newTestServer(t, t.TempDir(), nil)
	defer drainNow(t, s)
	for _, bad := range []string{
		`{"model":"resnet-99","task_index":1,"gpu":"titan-xp"}`,
		`{"model":"resnet-18","task_index":999,"gpu":"titan-xp"}`,
		`{"model":"resnet-18","task_index":7,"gpu":"gpu-that-isnt"}`,
		`not json`,
	} {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: got %s, want 400", bad, resp.Status)
		}
	}
}

// TestProgressEventJSONStable pins the SSE record wire format byte for
// byte (DESIGN.md §13): struct order, documented names, no wall-clock
// fields.
func TestProgressEventJSONStable(t *testing.T) {
	data, err := json.Marshal(ProgressEvent{
		Seq: 3, Job: "j1", Kind: "step",
		Step: 2, Measurements: 32, BestGFLOPS: 1234.5, GPUSeconds: 6.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":3,"job":"j1","kind":"step","step":2,"measurements":32,"best_gflops":1234.5,"gpu_seconds":6.25}`
	if string(data) != want {
		t.Fatalf("ProgressEvent JSON drifted:\n got %s\nwant %s", data, want)
	}
	data, err = json.Marshal(ProgressEvent{Seq: 1, Job: "j1", Kind: "state", State: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"seq":1,"job":"j1","kind":"state","state":"queued"}`
	if string(data) != want {
		t.Fatalf("state event JSON drifted:\n got %s\nwant %s", data, want)
	}
}

// TestLedgerEndpointReconciles: after jobs complete, /v1/tenants totals
// equal the sum of the jobs' result spend exactly.
func TestLedgerEndpointReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.TenantBudgets = map[string]float64{"acme": 10_000}
	})
	defer drainNow(t, s)
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48, Tenant: "acme"}
	v := waitTerminal(t, base, submitJob(t, base, spec), 120*time.Second)
	if v.State != StateDone {
		t.Fatalf("job ended %s", v.State)
	}
	resp, err := http.Get(base + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv tenantsView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	if len(tv.Tenants) != 1 || tv.Tenants[0].Tenant != "acme" {
		t.Fatalf("tenants = %+v", tv.Tenants)
	}
	got := tv.Tenants[0]
	if got.Jobs != 1 || got.Measurements != v.Result.Measurements {
		t.Fatalf("ledger %+v vs result measurements %d", got, v.Result.Measurements)
	}
	if diff := got.GPUSeconds - v.Result.GPUSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ledger GPU seconds %v != result %v", got.GPUSeconds, v.Result.GPUSeconds)
	}
	if got.BudgetGPUSeconds != 10_000 {
		t.Fatalf("budget lost: %+v", got)
	}
}

// TestRunningClearsWhenJobsFinish polls every job to a terminal state and
// then requires /v1/tenants and /telemetryz to report no running job. The
// measurer's closer stalls, so each worker is still winding its session
// down when its job already reads terminal: the job must give up its
// running slot with the terminal transition, not when the worker returns.
func TestRunningClearsWhenJobsFinish(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.Sessions = 2
		c.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
			m, err := measure.NewLocal(gpu)
			stall := func() error { time.Sleep(300 * time.Millisecond); return nil }
			return m, stall, err
		}
	})
	defer drainNow(t, s)
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, submitJob(t, base, JobSpec{Model: workload.AlexNet, TaskIndex: 2,
			GPU: hwspec.TitanXp, Seed: seed, MaxMeasurements: 16, Tenant: "acme"}))
	}
	for _, id := range ids {
		if v := waitTerminal(t, base, id, 120*time.Second); v.State != StateDone {
			t.Fatalf("job %s ended %s", id, v.State)
		}
	}
	for _, path := range []string{"/v1/tenants", "/telemetryz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			Running int `json:"running"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Running != 0 {
			t.Fatalf("%s reports %d running after every job finished", path, view.Running)
		}
	}
}

// TestServeTenantSplitAcrossDrain runs a two-tenant stream at a 3:1
// budget split on two sessions, drains the server mid-stream and restarts
// it on the same state directory: every job must finish, the drain must
// have interrupted live sessions that the restart resumes, and each
// tenant's ledger row must keep its budget and reconcile with its
// results.
func TestServeTenantSplitAcrossDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	dir := t.TempDir()
	budgets := map[string]float64{"alpha": 30_000, "beta": 10_000}
	serve := func() (*Server, string) {
		return newTestServer(t, dir, func(c *Config) {
			c.Sessions = 2
			c.TenantBudgets = budgets
			// A per-batch delay stands in for device time, so the drain
			// below interrupts sessions mid-run.
			c.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
				m, err := measure.NewLocal(gpu)
				return slowMeasurer{inner: m, delay: 20 * time.Millisecond}, func() error { return nil }, err
			}
		})
	}

	// Four alpha jobs and two beta jobs, distinct seeds.
	tasks := []struct {
		model string
		l     int
	}{
		{workload.ResNet18, 4}, {workload.ResNet18, 7}, {workload.AlexNet, 2},
		{workload.AlexNet, 8}, {workload.VGG16, 8}, {workload.ResNet18, 13},
	}
	s1, base1 := serve()
	ids := make([]string, len(tasks))
	tenantOf := map[string]string{}
	for i, ref := range tasks {
		tenant := "alpha"
		if i%3 == 2 {
			tenant = "beta"
		}
		ids[i] = submitJob(t, base1, JobSpec{Model: ref.model, TaskIndex: ref.l, GPU: hwspec.TitanXp,
			Seed: int64(100 + i), Tenant: tenant, MaxMeasurements: 64})
		tenantOf[ids[i]] = tenant
	}

	// Drain once a third of the jobs are done and a live session has
	// checkpointed a step.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		done, live := 0, false
		for _, v := range listJobs(t, base1) {
			if v.State.terminal() {
				done++
				continue
			}
			for _, ev := range s1.hub.history(v.ID) {
				live = live || ev.Kind == "step"
			}
		}
		if done >= len(tasks)/3 && live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs finished and no live checkpoint before the drain deadline", done)
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainNow(t, s1)

	// Jobs re-queued with a measurement log on disk are the ones the
	// restart resumes from a checkpoint.
	st, recovered, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, j := range recovered {
		if !j.State.terminal() {
			if fi, err := os.Stat(st.measPath(j.ID)); err == nil && fi.Size() > 0 {
				resumed++
			}
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if resumed == 0 {
		t.Fatal("the drain interrupted no session; the restart resumes nothing")
	}

	s2, base2 := serve()
	defer drainNow(t, s2)
	want := map[string]tuner.TenantSpend{}
	for _, id := range ids {
		v := waitTerminal(t, base2, id, 2*time.Minute)
		if v.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, v.State, v.Detail)
		}
		w := want[tenantOf[id]]
		w.Jobs++
		w.Measurements += v.Result.Measurements
		w.GPUSeconds += v.Result.GPUSeconds
		want[tenantOf[id]] = w
	}
	resp, err := http.Get(base2 + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv tenantsView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	if len(tv.Tenants) != len(budgets) {
		t.Fatalf("tenants view %+v", tv)
	}
	for _, got := range tv.Tenants {
		w := want[got.Tenant]
		if got.BudgetGPUSeconds != budgets[got.Tenant] {
			t.Fatalf("%s: budget %v after restart, want %v", got.Tenant, got.BudgetGPUSeconds, budgets[got.Tenant])
		}
		if got.Jobs != w.Jobs || got.Measurements != w.Measurements {
			t.Fatalf("%s: ledger %d jobs, %d measurements; results %d, %d",
				got.Tenant, got.Jobs, got.Measurements, w.Jobs, w.Measurements)
		}
		if diff := got.GPUSeconds - w.GPUSeconds; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: ledger %v GPU seconds, results %v", got.Tenant, got.GPUSeconds, w.GPUSeconds)
		}
	}
}

func listJobs(t testing.TB, base string) []jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []jobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	return views
}
