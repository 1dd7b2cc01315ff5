package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// syncBuffer is a tracer sink safe for concurrent writes from server
// goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) events(t testing.TB) []telemetry.SpanEvent {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []telemetry.SpanEvent
	err := tlog.ReadJSONLines(bytes.NewReader(s.b.Bytes()), func(line []byte) error {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		out = append(out, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDistributedTraceAcrossRPC is the tentpole end-to-end check: a
// glimpsed server backed by two measured endpoints over real net/rpc,
// every process tracing to its own log. The merged logs must reassemble
// into one trace per job whose endpoint-side rpc_measure spans carry the
// job's TraceID and tenant, linked (not orphaned) to glimpsed's spans.
func TestDistributedTraceAcrossRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions over RPC")
	}
	var epBufs [2]syncBuffer
	var epAddrs [2]string
	for i := range epBufs {
		ms, err := measure.NewServer([]string{hwspec.TitanXp})
		if err != nil {
			t.Fatal(err)
		}
		ms.SetTracer(telemetry.NewTracerProc(&epBufs[i], nil, fmt.Sprintf("ep%d", i)))
		addr, err := ms.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		epAddrs[i] = addr
		defer ms.Close()
	}

	var glimpsedBuf syncBuffer
	var next int
	var nextMu sync.Mutex
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.Tracer = telemetry.NewTracerProc(&glimpsedBuf, nil, "glimpsed")
		c.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
			nextMu.Lock()
			addr := epAddrs[next%len(epAddrs)]
			next++
			nextMu.Unlock()
			r, err := measure.Dial(addr, gpu)
			if err != nil {
				return nil, nil, err
			}
			return r, r.Close, nil
		}
	})

	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48, Tenant: "acme"}
	ids := []string{submitJob(t, base, spec)}
	spec.Seed = 42
	ids = append(ids, submitJob(t, base, spec))
	for _, id := range ids {
		if v := waitTerminal(t, base, id, 120*time.Second); v.State != StateDone {
			t.Fatalf("job %s ended %s", id, v.State)
		}
	}
	drainNow(t, s)

	procs := []telemetry.ProcTrace{
		{Proc: "glimpsed", Events: glimpsedBuf.events(t)},
		{Proc: "ep0", Events: epBufs[0].events(t)},
		{Proc: "ep1", Events: epBufs[1].events(t)},
	}
	traces := telemetry.MergeTraces(procs)
	byID := map[string]*telemetry.MergedTrace{}
	for _, tr := range traces {
		byID[tr.TraceID] = tr
	}

	epUsed := map[string]bool{}
	for _, id := range ids {
		tr := byID["job-"+id]
		if tr == nil {
			t.Fatalf("no merged trace for job %s (have %v)", id, len(traces))
		}
		if tr.JobID != id || tr.Tenant != "acme" {
			t.Fatalf("trace identity wrong for %s: %+v", id, tr)
		}
		if tr.Spans == 0 {
			t.Fatalf("trace %s has no spans", tr.TraceID)
		}
		// Walk the tree: rpc_measure spans must come from an endpoint
		// process, carry the job's identity, and hang off a glimpsed span
		// (i.e. not be orphan roots).
		var rpcSpans, orphanRPC int
		var walk func(n *telemetry.MergedSpan)
		walk = func(n *telemetry.MergedSpan) {
			if n.Event.Stage == telemetry.StageRPCMeasure && n.Event.Kind == "span" {
				rpcSpans++
				epUsed[n.Proc] = true
				if !strings.HasPrefix(n.Proc, "ep") {
					t.Fatalf("rpc_measure span from %q, want an endpoint", n.Proc)
				}
				if n.Event.JobID != id || n.Event.Tenant != "acme" {
					t.Fatalf("rpc_measure span lost job identity: %+v", n.Event)
				}
				if n.Orphan {
					orphanRPC++
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, r := range tr.Roots {
			walk(r)
		}
		if rpcSpans == 0 {
			t.Fatalf("trace %s has no endpoint rpc_measure spans", tr.TraceID)
		}
		if orphanRPC > 0 {
			t.Fatalf("%d rpc_measure spans orphaned in %s — parent IDs not propagated", orphanRPC, tr.TraceID)
		}
		// The critical path roots at whichever top-level span bounded the
		// job's latency: the job span itself, or — with one session and a
		// second job waiting — the (childless) queue_wait span.
		path := tr.CriticalPath()
		if len(path) == 0 {
			t.Fatalf("trace %s has no critical path", tr.TraceID)
		}
		switch root := path[0].Event.Stage; root {
		case telemetry.StageJob:
			if len(path) < 2 {
				t.Fatalf("critical path from the job span never descends: %d nodes", len(path))
			}
		case telemetry.StageQueueWait:
			// A queue-bound job: the wait leaf alone is the whole path.
		default:
			t.Fatalf("critical path rooted at unexpected stage %q", root)
		}
	}
	// Round-robin over two endpoints with two jobs must touch both.
	if len(epUsed) < 2 {
		t.Fatalf("expected both endpoints in the merged traces, got %v", epUsed)
	}
}

// TestMetricszReconcilesLedger: the per-tenant GPU-second float counter
// on /telemetryz must equal the ledger's total bit-for-bit, and /metricsz
// must render the labeled families.
func TestMetricszReconcilesLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.SLOs = SLOConfig{TTFPThresholdMS: 60_000, TTFPObjective: 0.95, AvailObjective: 0.95}
	})
	defer drainNow(t, s)
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48, Tenant: "acme"}
	if v := waitTerminal(t, base, submitJob(t, base, spec), 120*time.Second); v.State != StateDone {
		t.Fatalf("job ended %s", v.State)
	}

	resp, err := http.Get(base + "/telemetryz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Tenants []struct {
			Tenant     string  `json:"tenant"`
			GPUSeconds float64 `json:"gpu_seconds"`
		} `json:"tenants"`
		SLOs    []SLOStatus        `json:"slos"`
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Tenants) != 1 || view.Tenants[0].Tenant != "acme" {
		t.Fatalf("tenants: %+v", view.Tenants)
	}
	var counter float64
	found := false
	for _, f := range view.Metrics.Floats {
		if f.Name == telemetry.Labeled("glimpsed_gpu_seconds", "tenant", "acme") {
			counter, found = f.Value, true
		}
	}
	if !found {
		t.Fatalf("no per-tenant gpu_seconds counter in %+v", view.Metrics.Floats)
	}
	// Exact equality: charge() feeds the ledger and the counter the same
	// deltas in the same order under one lock.
	if counter != view.Tenants[0].GPUSeconds {
		t.Fatalf("metrics gpu_seconds %v != ledger %v", counter, view.Tenants[0].GPUSeconds)
	}
	if len(view.SLOs) != 2 {
		t.Fatalf("slos: %+v", view.SLOs)
	}
	for _, slo := range view.SLOs {
		if slo.Total == 0 {
			t.Fatalf("SLO %s observed nothing", slo.Name)
		}
		if slo.Burn > 0 {
			t.Fatalf("SLO %s burning (%v) on a healthy run: %+v", slo.Name, slo.Burn, slo)
		}
	}

	mresp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"glimpsed_gpu_seconds{tenant=acme}", "glimpsed_jobs_done{tenant=acme}",
		"glimpsed_queue_wait_ms{tenant=acme}", "slo ttfp_latency", "slo availability"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metricsz missing %q:\n%s", want, text)
		}
	}
}

// metricszCounters reads /metricsz and returns its counter rows, name to
// value.
func metricszCounters(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[1] == "counter" {
			out[f[0]] = f[2]
		}
	}
	return out
}

// TestMetricszMirrorsCacheCounters: glimpsed mirrors its tuned-config
// store's counters onto /metricsz. Over a writable store a donor run
// counts a miss and a put, and its repeat a hit; a readonly server over
// the same store then warm-starts the spec on another GPU and counts the
// skipped put.
func TestMetricszMirrorsCacheCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	dir := t.TempDir()
	storePath := dir + "/tuned.jsonl"
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: "rtx-2080-ti", Seed: 41, MaxMeasurements: 32}
	phases := []struct {
		readonly bool
		gpus     []string
		want     map[string]string // absent: the counter must not exist
	}{
		{false, []string{"rtx-2080-ti", "rtx-2080-ti"}, map[string]string{"cache_miss": "1", "cache_put": "1", "cache_hit": "1"}},
		{true, []string{hwspec.TitanXp}, map[string]string{"cache_miss": "1", "cache_warm_start": "1", "cache_put_skip": "1"}},
	}
	for i, ph := range phases {
		s, base := newTestServer(t, fmt.Sprintf("%s/state%d", dir, i), func(c *Config) {
			c.CachePath = storePath
			c.CacheReadOnly = ph.readonly
		})
		for _, gpu := range ph.gpus {
			spec.GPU = gpu
			if v := waitTerminal(t, base, submitJob(t, base, spec), 120*time.Second); v.State != StateDone {
				t.Fatalf("phase %d: job on %s ended %s (%s)", i, gpu, v.State, v.Detail)
			}
		}
		got := metricszCounters(t, base)
		drainNow(t, s)
		for _, name := range []string{"cache_hit", "cache_miss", "cache_warm_start", "cache_put", "cache_put_skip"} {
			if got[name] != ph.want[name] {
				t.Errorf("phase %d: /metricsz %s = %q, want %q (counters %v)", i, name, got[name], ph.want[name], got)
			}
		}
	}
}

// TestWorkerShare: a job about to tune gets the worker pool divided
// among the jobs running, itself included, and at least one worker, so
// a lone job keeps every CPU; /telemetryz reports the pool beside the
// session count.
func TestWorkerShare(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.DefaultWorkers())
	s, err := New(Config{StateDir: t.TempDir(), Sessions: 4, Log: io.Discard, Toolkits: fixedToolkits{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct{ workers, running, want int }{
		{8, 1, 8}, {8, 3, 2}, {8, 4, 2}, {2, 1, 2}, {2, 2, 1}, {2, 4, 1},
	} {
		parallel.SetDefaultWorkers(tc.workers)
		s.mu.Lock()
		for i := 0; i < tc.running; i++ {
			s.running[fmt.Sprint("job", i)] = &runningJob{}
		}
		s.mu.Unlock()
		got, v := s.workerShare(), s.telemetryView()
		s.mu.Lock()
		clear(s.running)
		s.mu.Unlock()
		if got != tc.want || v.Workers != tc.workers || v.Sessions != 4 {
			t.Errorf("%d workers, %d running: share %d, want %d; view reports %d workers, %d sessions",
				tc.workers, tc.running, got, tc.want, v.Workers, v.Sessions)
		}
	}
}

// TestTerminalJobIsAlreadyCounted repeats the client sequence behind
// TestMetricszReconcilesLedger — poll a job until it is terminal, then
// read /telemetryz — and requires the availability SLO and the done
// counter to include every job the client has seen finish. Jobs after the
// first are exact cache hits, so the loop is fast.
func TestTerminalJobIsAlreadyCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tuning session")
	}
	dir := t.TempDir()
	s, base := newTestServer(t, dir, func(c *Config) {
		c.CachePath = dir + "/tuned.jsonl"
		c.SLOs = SLOConfig{AvailObjective: 0.95}
	})
	defer drainNow(t, s)
	spec := JobSpec{Model: workload.AlexNet, TaskIndex: 2, GPU: hwspec.TitanXp,
		Seed: 5, MaxMeasurements: 16, Tenant: "acme"}
	for n := int64(1); n <= 40; n++ {
		// Poll without pausing, to land as close as possible to the
		// moment the job turns terminal.
		id, deadline := submitJob(t, base, spec), time.Now().Add(120*time.Second)
		v := getJob(t, base, id)
		for ; !v.State.terminal(); v = getJob(t, base, id) {
			if time.Now().After(deadline) {
				t.Fatalf("job %d still %s", n, v.State)
			}
		}
		if v.State != StateDone {
			t.Fatalf("job %d ended %s", n, v.State)
		}
		resp, err := http.Get(base + "/telemetryz")
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			SLOs    []SLOStatus        `json:"slos"`
			Metrics telemetry.Snapshot `json:"metrics"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(view.SLOs) != 1 || view.SLOs[0].Total != n {
			t.Fatalf("after %d terminal jobs the SLOs count %+v", n, view.SLOs)
		}
		done := -1.0
		for _, c := range view.Metrics.Counters {
			if c.Name == telemetry.Labeled(mJobsDone, "tenant", "acme") {
				done = c.Value
			}
		}
		if int64(done) != n {
			t.Fatalf("after %d terminal jobs %s = %v", n, mJobsDone, done)
		}
	}
}

// TestTracedRunStreamByteIdentical: turning tracing on (without SLOs)
// must not change one byte of the job's SSE stream or its result — the
// determinism contract for the observability layer. Both runs consult a
// tuned-config store, and the traced one records its lookup as a
// cache_lookup span under the job span.
func TestTracedRunStreamByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 17, MaxMeasurements: 48, Tenant: "acme"}
	var streams [2]string
	var results [2][]byte
	for i, traced := range []bool{false, true} {
		var buf syncBuffer
		dir := t.TempDir()
		s, base := newTestServer(t, dir, func(c *Config) {
			c.CachePath = dir + "/tuned.jsonl"
			if traced {
				c.Tracer = telemetry.NewTracerProc(&buf, nil, "glimpsed")
			}
		})
		id := submitJob(t, base, spec)
		streams[i] = strings.Join(collectEvents(t, base, id), "\n")
		v := getJob(t, base, id)
		results[i] = resultBytes(t, v.Result)
		drainNow(t, s)
		if traced {
			checkCacheLookupSpan(t, buf.events(t))
		}
	}
	if streams[0] != streams[1] {
		t.Fatalf("tracing changed the SSE stream:\n--- untraced ---\n%s\n--- traced ---\n%s",
			streams[0], streams[1])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("tracing changed the result:\n untraced %s\n traced   %s", results[0], results[1])
	}
}

// checkCacheLookupSpan asserts a traced job recorded exactly one
// cache_lookup span, parented under its job span, with the lookup's
// outcome on a fresh store: a miss with no donors.
func checkCacheLookupSpan(t *testing.T, events []telemetry.SpanEvent) {
	t.Helper()
	jobSpans := map[string]bool{}
	var lookups []telemetry.SpanEvent
	for _, ev := range events {
		switch {
		case ev.Kind != "span":
		case ev.Stage == telemetry.StageJob:
			jobSpans[ev.SpanID] = true
		case ev.Stage == telemetry.StageCacheLookup:
			lookups = append(lookups, ev)
		}
	}
	if len(jobSpans) != 1 || len(lookups) != 1 {
		t.Fatalf("traced run recorded %d job and %d cache_lookup spans, want 1 and 1", len(jobSpans), len(lookups))
	}
	ev := lookups[0]
	if !jobSpans[ev.ParentID] {
		t.Fatalf("cache_lookup span parented under %q, not the job span", ev.ParentID)
	}
	if ev.Attrs["hit"] != false || ev.Attrs["donors"] != float64(0) {
		t.Fatalf("cache_lookup attrs %v, want hit false and donors 0", ev.Attrs)
	}
}

// TestHubPublishNeverBlocksOnStalledConsumer: the hub buffers by cursor,
// so a subscriber that never drains cannot stall publishers.
func TestHubPublishNeverBlocksOnStalledConsumer(t *testing.T) {
	h := newHub()
	// A stalled consumer: grabs a wait handle and never reads again.
	_, _, wait := h.since("j1", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			h.publish("j1", ProgressEvent{Kind: "progress"})
		}
		h.close("j1")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a stalled consumer")
	}
	select {
	case <-wait:
	default:
		t.Fatal("stalled consumer's wait handle never signaled")
	}
	if got := len(h.history("j1")); got != 500 {
		t.Fatalf("history length %d, want 500", got)
	}
	// A late subscriber still replays the full stream.
	evs, doneFlag, _ := h.since("j1", 0)
	if len(evs) != 500 || !doneFlag {
		t.Fatalf("late subscriber: %d events, done=%v", len(evs), doneFlag)
	}
}

// TestSSEStalledClientNoGoroutineLeak: an SSE client that connects, stops
// reading, and disconnects must not leave the handler goroutine behind —
// the handler's wait select watches the request context.
func TestSSEStalledClientNoGoroutineLeak(t *testing.T) {
	s, base := newTestServer(t, t.TempDir(), func(c *Config) {
		c.Sessions = 0 // nothing runs; the stream just waits
	})
	defer drainNow(t, s)
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp,
		Seed: 41, MaxMeasurements: 48, Tenant: "acme"}
	id := submitJob(t, base, spec)

	before := runtime.NumGoroutine()
	const clients = 8
	for i := 0; i < clients; i++ {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		// Read the first bytes so the handler is live, then hang up
		// without draining.
		one := make([]byte, 1)
		if _, err := resp.Body.Read(one); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after stalled SSE clients", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
