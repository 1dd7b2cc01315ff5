package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func fakeClockAt(sec int64) *FakeClock {
	return NewFakeClock(time.Unix(sec, 0).UTC())
}

func TestAppendJSONLineSurfacesMarshalError(t *testing.T) {
	var buf bytes.Buffer
	if err := AppendJSONLine(&buf, make(chan int)); err == nil {
		t.Fatal("AppendJSONLine marshaled an unmarshalable value")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed marshal still wrote %d bytes", buf.Len())
	}
}

func TestTracerSpanOutputDeterministic(t *testing.T) {
	clk := fakeClockAt(1000)
	var buf bytes.Buffer
	tr := NewTracer(&buf, clk)

	sp := tr.Start(StageAnneal)
	sp.SetAttr("chains", 64)
	clk.Advance(1500 * time.Microsecond)
	sp.End()
	clk.Advance(250 * time.Microsecond)
	tr.Event("retry", map[string]any{"backend": "titan-xp"})

	want := `{"seq":1,"kind":"span","stage":"anneal","start_us":0,"dur_us":1500,"attrs":{"chains":64}}
{"seq":2,"kind":"event","stage":"retry","start_us":1750,"attrs":{"backend":"titan-xp"}}
`
	if got := buf.String(); got != want {
		t.Fatalf("trace output:\n%s\nwant:\n%s", got, want)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Start("anything")
	sp.SetAttr("k", "v")
	sp.End()
	tr.Event("boom", nil)
	if err := tr.Err(); err != nil {
		t.Fatalf("nil tracer Err() = %v", err)
	}
}

func TestTracerConcurrentEmitSeqsUnique(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, fakeClockAt(0))
	var wg sync.WaitGroup
	const n, per = 8, 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				sp := tr.Start(StageMeasure)
				sp.End()
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if len(seen) != n*per {
		t.Fatalf("got %d events, want %d", len(seen), n*per)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestTracerLatchesFirstWriteError(t *testing.T) {
	boom := fmt.Errorf("disk full")
	tr := NewTracer(failWriter{err: boom}, fakeClockAt(0))
	sp := tr.Start("x")
	sp.End() // must not panic or abort
	tr.Event("y", nil)
	if err := tr.Err(); err != boom {
		t.Fatalf("Err() = %v, want latched %v", err, boom)
	}
}

func TestFakeClockAdvance(t *testing.T) {
	clk := fakeClockAt(42)
	t0 := clk.Now()
	clk.Advance(3 * time.Second)
	if d := clk.Now().Sub(t0); d != 3*time.Second {
		t.Fatalf("Advance moved %v, want 3s", d)
	}
}

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("batches").Add(3)
	r.Counter("batches").Inc() // same instance
	r.Gauge("inflight").Set(2)
	h := r.Histogram("batch_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5000) // overflow bucket

	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Name != "batches" || s.Counters[0].Value != 4 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 2 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	hs := s.Histograms[0]
	if hs.Count != 3 {
		t.Fatalf("hist count = %d", hs.Count)
	}
	wantCounts := []int64{1, 1, 0, 1}
	for i, c := range hs.Counts {
		if c != wantCounts[i] {
			t.Fatalf("hist counts = %v, want %v", hs.Counts, wantCounts)
		}
	}
	if hs.Mean == 0 {
		t.Fatal("hist mean not computed")
	}
}

func TestNilRegistryHandsOutUsableMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter from nil registry unusable")
	}
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1}).Observe(2)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %+v", s)
	}
}

func TestSnapshotSortedAndTableRenders(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Inc()
	s := r.Snapshot()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("snapshot not sorted: %+v", s.Counters)
	}
	out := s.Table("metrics")
	for _, want := range []string{"metrics", "alpha", "zeta", "counter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestDebugServerTelemetryzAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("batches").Add(7)
	mux := NewDebugMux(r, map[string]SnapshotFunc{
		"server": func() any { return map[string]int{"in_flight": 2} },
	})
	addr, closeFn, err := ServeDebug("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := get("/telemetryz")
	var parsed struct {
		Metrics Snapshot       `json:"metrics"`
		Server  map[string]int `json:"server"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("telemetryz not JSON: %v\n%s", err, body)
	}
	if len(parsed.Metrics.Counters) != 1 || parsed.Metrics.Counters[0].Value != 7 {
		t.Fatalf("telemetryz metrics = %+v", parsed.Metrics)
	}
	if parsed.Server["in_flight"] != 2 {
		t.Fatalf("telemetryz extra section = %+v", parsed.Server)
	}
	if !strings.Contains(get("/debug/pprof/"), "profiles") {
		t.Fatal("pprof index not served")
	}
}
