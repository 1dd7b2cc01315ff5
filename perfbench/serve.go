package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/server"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// clients is serve_warm's closed-loop client count, and sessions the
// server's concurrent tuning sessions.
const (
	clients  = 2
	sessions = 2
)

// daemon is one in-process glimpsed server measuring over net/rpc
// against an in-process measure.Server, the way `glimpsed -endpoints`
// runs against measured.
type daemon struct {
	srv      *server.Server
	meas     *measure.Server
	base     string
	stateDir string
	toolkits *timedToolkits
}

type daemonConfig struct {
	stateDir  string
	cachePath string
	gpus      []string // devices the measure server hosts
	toolkits  server.ToolkitProvider
	tr        *tracing // nil: untraced
}

func startDaemon(dc daemonConfig) (*daemon, error) {
	meas, err := measure.NewServer(dc.gpus)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		StateDir:  dc.stateDir,
		Sessions:  sessions,
		CachePath: dc.cachePath,
		Log:       io.Discard,
	}
	if dc.tr != nil {
		meas.SetTracer(dc.tr.measured)
		cfg.Tracer = dc.tr.glimpsed
	}
	addr, err := meas.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
		r, err := measure.Dial(addr, gpu)
		if err != nil {
			return nil, nil, err
		}
		return r, r.Close, nil
	}
	d := &daemon{meas: meas, stateDir: dc.stateDir, toolkits: &timedToolkits{inner: dc.toolkits}}
	cfg.Toolkits = d.toolkits
	srv, err := server.New(cfg)
	if err != nil {
		_ = meas.Close()
		return nil, err
	}
	haddr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		_ = meas.Close()
		return nil, err
	}
	d.srv, d.base = srv, "http://"+haddr
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if merr := d.meas.DrainAndClose(ctx); err == nil {
		err = merr
	}
	return err
}

// timedToolkits wraps a ToolkitProvider to time each lookup: the wait a
// job spends getting its toolkit, training included.
type timedToolkits struct {
	inner server.ToolkitProvider
	mu    sync.Mutex
	waits []float64 // ms
}

func (t *timedToolkits) Toolkit(gpu string, seed int64) (*core.Toolkit, error) {
	start := time.Now()
	tk, err := t.inner.Toolkit(gpu, seed)
	t.mu.Lock()
	t.waits = append(t.waits, ms(time.Since(start)))
	t.mu.Unlock()
	return tk, err
}

func (t *timedToolkits) waitsMS() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.waits...)
}

// client is one closed-loop client: it submits a job, follows its SSE
// stream to the end, and fetches the result, all over one keep-alive
// connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobRun is one job as its client saw it.
type jobRun struct {
	index  int // position in the workload's job list
	id     string
	state  string // terminal state from the SSE stream
	result []byte // GET /result body
	sample sample
	end    time.Duration // completion, from the start of the load

	submit, sseFirst, resultRT time.Duration // client-side HTTP timers
}

// do runs one job end to end. A refused submission or a job that does
// not end done comes back with an error and counts as failed.
func (c *client) do(spec server.JobSpec) (*jobRun, error) {
	jr := &jobRun{}
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	drain(resp)
	if resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("submit refused: %s", resp.Status)
	}
	if derr != nil {
		return jr, fmt.Errorf("submit: %w", derr)
	}
	jr.id = sub.ID
	t1 := time.Now()
	jr.submit = t1.Sub(t0)

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + jr.id + "/events")
	if err != nil {
		return jr, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.ProgressEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			drain(resp)
			return jr, fmt.Errorf("job %s: bad event: %w", jr.id, err)
		}
		if jr.sample.ttfp == 0 && (ev.Kind == "step" || ev.Kind == "result") {
			now := time.Now()
			jr.sample.ttfp = now.Sub(t0)
			jr.sseFirst = now.Sub(t1)
		}
		if ev.Kind == "state" {
			jr.state = ev.State
		}
	}
	serr := sc.Err()
	drain(resp)
	if serr != nil {
		return jr, fmt.Errorf("job %s: events: %w", jr.id, serr)
	}
	if jr.state != string(server.StateDone) {
		return jr, fmt.Errorf("job %s ended %q", jr.id, jr.state)
	}

	t2 := time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + jr.id + "/result")
	if err != nil {
		return jr, err
	}
	jr.result, err = io.ReadAll(resp.Body)
	drain(resp)
	if err != nil {
		return jr, err
	}
	if resp.StatusCode != http.StatusOK {
		return jr, fmt.Errorf("job %s: result: %s", jr.id, resp.Status)
	}
	t3 := time.Now()
	jr.resultRT = t3.Sub(t2)
	jr.sample.latency = t3.Sub(t0)
	return jr, nil
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // best effort: the body is done with
	_ = resp.Body.Close()
}

// loadStats is what a closed loop over a daemon produced.
type loadStats struct {
	runs     []*jobRun // completed jobs, in job-list order
	errs     []string
	attempts int
	timed    time.Duration
}

// closedLoop runs n clients against base. Each client takes the next job
// index, runs it, and repeats, until next (given the index and the time
// since the loop began) returns false. The timed region spans the first
// submission to the last result.
func closedLoop(base string, n int, next func(i int, elapsed time.Duration) (server.JobSpec, bool)) loadStats {
	var (
		mu      sync.Mutex
		counter atomic.Int64
		ls      loadStats
	)
	byIndex := map[int]*jobRun{}
	start := time.Now()
	// One pool worker per client; each runs its closed loop to the end.
	parallel.For(n, n, func(int) {
		c := newClient(base)
		defer c.close()
		for {
			i := int(counter.Add(1) - 1)
			spec, ok := next(i, time.Since(start))
			if !ok {
				return
			}
			jr, err := c.do(spec)
			jr.index, jr.end = i, time.Since(start)
			mu.Lock()
			ls.attempts++
			if err != nil {
				ls.errs = append(ls.errs, err.Error())
			} else {
				byIndex[i] = jr
			}
			mu.Unlock()
		}
	})
	ls.timed = time.Since(start)
	for _, jr := range byIndex {
		ls.runs = append(ls.runs, jr)
	}
	sort.Slice(ls.runs, func(a, b int) bool { return ls.runs[a].index < ls.runs[b].index })
	return ls
}

// apply copies a closed loop's outcome into the run's report.
func (rd *runData) apply(ls loadStats) {
	rd.timed = ls.timed
	rd.attempted += ls.attempts
	rd.failed += len(ls.errs)
	for _, e := range ls.errs {
		rd.problems = append(rd.problems, e)
	}
	var dg digester
	ends := make([]time.Duration, 0, len(ls.runs))
	for _, jr := range ls.runs {
		ends = append(ends, jr.end)
		rd.samples = append(rd.samples, jr.sample)
		dg.add(jr.result)
		var res tuner.Result
		if err := json.Unmarshal(jr.result, &res); err != nil {
			rd.problems = append(rd.problems, tagged(jr.id, "result: %v", err))
			continue
		}
		if res.BestGFLOPS <= 0 {
			rd.problems = append(rd.problems, tagged(jr.id, "no valid configuration"))
			continue
		}
		rd.gflops = append(rd.gflops, res.BestGFLOPS)
	}
	rd.digest = dg.String()
	rd.rates = windowRates(ends, ls.timed)
}

// getJSON fetches base+path into v.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobView is the subset of a GET /v1/jobs entry the checks read.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Warm   bool   `json:"warm"`
}

// checkBooks verifies the service's books after a load: every journaled
// job is done (none lost, none still queued) and the /v1/tenants ledger
// reconciles with the results exactly.
func checkBooks(base string, ls loadStats) []string {
	var problems []string
	var views []jobView
	if err := getJSON(base, "/v1/jobs", &views); err != nil {
		return []string{err.Error()}
	}
	if len(views) != ls.attempts {
		problems = append(problems, fmt.Sprintf("server lists %d jobs, clients submitted %d", len(views), ls.attempts))
	}
	for _, v := range views {
		if v.State != string(server.StateDone) {
			problems = append(problems, tagged(v.ID, "state %s", v.State))
		}
	}
	var gpuSeconds float64
	var measurements int
	for _, jr := range ls.runs {
		var res tuner.Result
		if json.Unmarshal(jr.result, &res) == nil {
			gpuSeconds += res.GPUSeconds
			measurements += res.Measurements
		}
	}
	var tv struct {
		Tenants []tuner.TenantSpend `json:"tenants"`
		Queued  int                 `json:"queued"`
		Running int                 `json:"running"`
	}
	if err := getJSON(base, "/v1/tenants", &tv); err != nil {
		return append(problems, err.Error())
	}
	var ledgerSeconds float64
	var ledgerMeas int
	for _, ts := range tv.Tenants {
		ledgerSeconds += ts.GPUSeconds
		ledgerMeas += ts.Measurements
	}
	if drift := ledgerSeconds - gpuSeconds; drift > 1e-9*(1+gpuSeconds) || drift < -1e-9*(1+gpuSeconds) {
		problems = append(problems, fmt.Sprintf("ledger drift %.9f GPU-seconds", drift))
	}
	if ledgerMeas != measurements {
		problems = append(problems, fmt.Sprintf("ledger has %d measurements, results %d", ledgerMeas, measurements))
	}
	if tv.Queued != 0 || tv.Running != 0 {
		problems = append(problems, fmt.Sprintf("%d queued, %d running after the load", tv.Queued, tv.Running))
	}
	return problems
}

// stateFiles sums the job journal and measurement logs of a state dir.
type stateFiles struct {
	journalBytes, journalLines, measBytes int64
}

func readStateFiles(dir string) (stateFiles, error) {
	var sf stateFiles
	data, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return sf, err
	}
	sf.journalBytes = int64(len(data))
	sf.journalLines = int64(bytes.Count(data, []byte("\n")))
	logs, err := filepath.Glob(filepath.Join(dir, "meas-*.jsonl"))
	if err != nil {
		return sf, err
	}
	for _, p := range logs {
		fi, err := os.Stat(p)
		if err != nil {
			return sf, err
		}
		sf.measBytes += fi.Size()
	}
	return sf, nil
}

// serveLayers records the per-layer metrics a serve workload measures
// outside the trace: client-side HTTP timers, state-dir sizes, cache
// flags, and toolkit waits. It returns how many jobs the server marked
// warm-started and cached.
func serveLayers(rd *runData, d *daemon, ls loadStats) (warm, cached int, err error) {
	var submit, sse, res []float64
	for _, jr := range ls.runs {
		submit = append(submit, ms(jr.submit))
		sse = append(sse, ms(jr.sseFirst))
		res = append(res, ms(jr.resultRT))
	}
	sf, err := readStateFiles(d.stateDir)
	if err != nil {
		return 0, 0, err
	}
	n := float64(len(ls.runs))
	var views []jobView
	if err := getJSON(d.base, "/v1/jobs", &views); err != nil {
		return 0, 0, err
	}
	for _, v := range views {
		if v.Warm {
			warm++
		}
		if v.Cached {
			cached++
		}
	}
	rd.layers = map[string]metric{
		"server.submit_ms":               {median(submit), "ms"},
		"server.sse_first_ms":            {median(sse), "ms"},
		"server.result_ms":               {median(res), "ms"},
		"server.journal_bytes_per_job":   {float64(sf.journalBytes) / n, "B"},
		"server.journal_records_per_job": {float64(sf.journalLines) / n, "count"},
		"server.measlog_bytes_per_job":   {float64(sf.measBytes) / n, "B"},
		"server.toolkit_wait_ms":         {median(d.toolkits.waitsMS()), "ms"},
		"cache.warm_share":               {float64(warm) / n, "share"},
	}
	return warm, cached, nil
}
