// Command glimpsed is the Glimpse tuning service: a long-running daemon
// that accepts tuning jobs over HTTP, runs several resumable sessions
// concurrently behind a tenant-fair priority queue, streams per-step
// progress over SSE, serves exact hits and warm starts from a
// tuned-config cache (the policy cmd/glimpse and cmd/fleet use, with 3
// donor devices per warm start), and drains gracefully — SIGTERM checkpoints every
// in-flight session's measurement log, and a restarted daemon resumes
// the same jobs to byte-identical results with zero lost work.
//
// Server mode:
//
//	glimpsed -state /var/lib/glimpsed [-addr :8743] [-sessions 4]
//	         [-queue-depth 256] [-budget 192] [-cache path]
//	         [-cache-readonly] [-artifacts dir] [-tenant-budget a=120,b=40]
//	         [-drain 2m] [-endpoints host:4817,host2:4817] [-trace out.jsonl]
//	         [-slo-ttfp-ms 5000 -slo-ttfp-objective 0.95] [-slo-availability 0.99]
//
// -endpoints measures over net/rpc against remote measured daemons instead
// of the in-process simulator, spreading jobs across the listed endpoints
// round-robin. -trace writes the service's side of each job's distributed
// trace as JSONL (span IDs prefixed "glimpsed/"); merge it with the
// endpoints' trace files via `tracereport -merge`. The SLO flags enable
// /telemetryz error-budget tracking and burn stamps on terminal SSE events.
// Per-tenant service metrics are always on: `GET /metricsz` (text) and
// `GET /telemetryz` (JSON, what cmd/glimpsetop polls).
//
// A second SIGTERM/SIGINT during the drain forces an immediate close
// (journals stay consistent; interrupted sessions still resume).
//
// Client mode (any of these flags selects it; -server names the daemon):
//
//	glimpsed -server http://localhost:8743 -submit '{"model":"resnet-18","task_index":7,"gpu":"titan-xp"}'
//	glimpsed -server ... -jobs batch.jsonl     # one JobSpec per line
//	glimpsed -server ... -watch j1             # stream SSE progress to stdout
//	glimpsed -server ... -result j1            # print the result JSON
//	glimpsed -server ... -list                 # list jobs
//	glimpsed -server ... -tenants              # per-tenant accounting
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/server"
	"github.com/neuralcompile/glimpse/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8743", "server mode: listen address")
	state := flag.String("state", "", "server mode: state directory (job journal + measurement logs)")
	sessions := flag.Int("sessions", 4, "server mode: concurrent tuning sessions; running jobs divide the CPUs")
	queueDepth := flag.Int("queue-depth", 256, "server mode: max queued jobs before 429")
	budget := flag.Int("budget", 192, "server mode: default measurements per job")
	cachePath := flag.String("cache", "", "server mode: persistent tuned-config store")
	cacheReadonly := flag.Bool("cache-readonly", false, "server mode: serve from -cache but never write")
	artifacts := flag.String("artifacts", "", "server mode: directory for trained toolkit artifacts")
	tenantBudgets := flag.String("tenant-budget", "", "server mode: per-tenant GPU-second budgets, name=seconds[,name=seconds...]")
	drainTimeout := flag.Duration("drain", 2*time.Minute, "server mode: graceful drain deadline on SIGTERM")
	endpoints := flag.String("endpoints", "", "server mode: comma-separated measured RPC endpoints (empty: in-process simulator)")
	tracePath := flag.String("trace", "", "server mode: write distributed-trace JSONL here (empty: tracing off)")
	sloTTFPMS := flag.Float64("slo-ttfp-ms", 0, "server mode: time-to-first-progress SLO threshold in ms")
	sloTTFPObj := flag.Float64("slo-ttfp-objective", 0, "server mode: target fraction of jobs under -slo-ttfp-ms (0: off)")
	sloAvail := flag.Float64("slo-availability", 0, "server mode: target fraction of terminal jobs finishing done (0: off)")

	serverURL := flag.String("server", "", "client mode: glimpsed base URL (e.g. http://localhost:8743)")
	submit := flag.String("submit", "", "client mode: submit one JobSpec (JSON literal, or @path)")
	jobsFile := flag.String("jobs", "", "client mode: batch-submit JobSpecs from a JSONL file")
	watch := flag.String("watch", "", "client mode: stream a job's SSE progress to stdout")
	result := flag.String("result", "", "client mode: print a job's result JSON")
	list := flag.Bool("list", false, "client mode: list jobs")
	tenants := flag.Bool("tenants", false, "client mode: print per-tenant accounting")
	flag.Parse()

	if *submit != "" || *jobsFile != "" || *watch != "" || *result != "" || *list || *tenants {
		runClient(client{base: strings.TrimRight(*serverURL, "/")},
			*submit, *jobsFile, *watch, *result, *list, *tenants)
		return
	}

	if *state == "" {
		fail(fmt.Errorf("-state is required in server mode (or pass a client flag; see -h)"))
	}
	budgets, err := parseTenantBudgets(*tenantBudgets)
	if err != nil {
		fail(err)
	}
	cfg := server.Config{
		StateDir:      *state,
		Sessions:      *sessions,
		MaxQueued:     *queueDepth,
		DefaultBudget: *budget,
		TenantBudgets: budgets,
		CachePath:     *cachePath,
		CacheReadOnly: *cacheReadonly,
		ArtifactsDir:  *artifacts,
		SLOs: server.SLOConfig{
			TTFPThresholdMS: *sloTTFPMS,
			TTFPObjective:   *sloTTFPObj,
			AvailObjective:  *sloAvail,
		},
	}
	var traceFile *os.File
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		traceFile = tf
		cfg.Tracer = telemetry.NewTracerProc(tf, nil, "glimpsed")
	}
	if *endpoints != "" {
		cfg.NewMeasurer = endpointMeasurer(splitList(*endpoints))
	}
	srv, err := server.New(cfg)
	if err != nil {
		fail(err)
	}
	bound, err := srv.Start(context.Background(), *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "glimpsed: listening on %s (%d sessions, state %s)\n",
		bound, *sessions, *state)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "glimpsed: draining (again to force)...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.DrainForced(dctx, sig); err != nil {
		fail(err)
	}
	if traceFile != nil {
		if terr := cfg.Tracer.Err(); terr != nil {
			fmt.Fprintln(os.Stderr, "glimpsed: trace:", terr)
		}
		if cerr := traceFile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "glimpsed: trace:", cerr)
		}
	}
	fmt.Fprintln(os.Stderr, "glimpsed: drained; queued and checkpointed jobs resume on restart")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// endpointMeasurer builds jobs' measurement backends from a pool of
// measured daemons: each job dials the next endpoint hosting its GPU,
// round-robin, so concurrent sessions spread across the fleet. The
// connection is per-job (closed when the job stops), matching the
// in-process default's lifecycle.
func endpointMeasurer(eps []string) func(gpu string) (measure.Measurer, func() error, error) {
	var next atomic.Int64
	return func(gpu string) (measure.Measurer, func() error, error) {
		start := int(next.Add(1)-1) % len(eps)
		var lastErr error
		for k := 0; k < len(eps); k++ {
			addr := eps[(start+k)%len(eps)]
			r, err := measure.Dial(addr, gpu)
			if err != nil {
				lastErr = err
				continue
			}
			return r, r.Close, nil
		}
		return nil, nil, fmt.Errorf("no endpoint hosts %s: %w", gpu, lastErr)
	}
}

func parseTenantBudgets(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenant-budget entry %q (want name=seconds)", part)
		}
		secs, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -tenant-budget value %q: %w", part, err)
		}
		out[name] = secs
	}
	return out, nil
}

// ---- client mode ----

type client struct {
	base string
}

func runClient(c client, submit, jobsFile, watch, result string, list, tenants bool) {
	if c.base == "" {
		fail(fmt.Errorf("client mode needs -server http://host:port"))
	}
	switch {
	case submit != "":
		id, err := c.submit([]byte(loadArg(submit)))
		if err != nil {
			fail(err)
		}
		fmt.Println(id)
	case jobsFile != "":
		if err := c.submitBatch(jobsFile); err != nil {
			fail(err)
		}
	case watch != "":
		if err := c.watch(watch); err != nil {
			fail(err)
		}
	case result != "":
		if err := c.get("/v1/jobs/"+result+"/result", os.Stdout); err != nil {
			fail(err)
		}
	case list:
		if err := c.get("/v1/jobs", os.Stdout); err != nil {
			fail(err)
		}
	case tenants:
		if err := c.get("/v1/tenants", os.Stdout); err != nil {
			fail(err)
		}
	}
}

// loadArg resolves @path arguments to file contents.
func loadArg(s string) string {
	if !strings.HasPrefix(s, "@") {
		return s
	}
	data, err := os.ReadFile(s[1:])
	if err != nil {
		fail(err)
	}
	return string(data)
}

// submit POSTs one JobSpec, honoring Retry-After backpressure (429 on a
// full queue, 503 while draining) with bounded retries.
func (c client) submit(spec []byte) (string, error) {
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		cerr := resp.Body.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				ID string `json:"id"`
			}
			if err := jsonUnmarshal(body, &ack); err != nil {
				return "", err
			}
			return ack.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt >= 20 {
				return "", fmt.Errorf("server busy after %d attempts: %s", attempt+1, strings.TrimSpace(string(body)))
			}
			time.Sleep(retryAfter(resp, time.Second))
		default:
			return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
	}
}

func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// submitBatch submits every JSONL line in the file, printing one job ID
// per line.
func (c client) submitBatch(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, err := c.submit([]byte(line))
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fmt.Println(id)
	}
	return sc.Err()
}

// watch streams a job's SSE events, printing each event's JSON payload
// as one line; it returns when the server closes the stream (job
// terminal or server drain).
func (c client) watch(id string) error {
	resp, err := http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("watch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			fmt.Println(data)
		}
	}
	return sc.Err()
}

func (c client) get(path string, out io.Writer) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = out.Write(body)
	return err
}

func jsonUnmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("bad server response %q: %w", string(data), err)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "glimpsed:", err)
	os.Exit(1)
}
