package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// tracing holds a traced run's tracers. Spans stay in memory while the
// run measures and are written out, then merged, when it ends.
type tracing struct {
	dir      string
	glimpsed *telemetry.Tracer // server side: queue_wait, job, step stages
	measured *telemetry.Tracer // measure.Server side: rpc_measure
	fleet    *telemetry.Tracer // fleet.Scheduler: task, dispatch, checkpoint
	bufs     map[string]*lockedBuffer
}

// lockedBuffer is a bytes.Buffer safe for the tracer's writes and the
// final read.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func newTracing(dir string) *tracing {
	tr := &tracing{dir: dir, bufs: map[string]*lockedBuffer{}}
	mk := func(proc string) *telemetry.Tracer {
		b := &lockedBuffer{}
		tr.bufs[proc] = b
		return telemetry.NewTracerProc(b, nil, proc)
	}
	tr.glimpsed = mk("glimpsed")
	tr.measured = mk("measured")
	tr.fleet = mk("fleet")
	return tr
}

// stageSpans collects one stage's span durations and self times.
type stageSpans struct {
	durMS, selfMS []float64
}

// merge writes every process's spans to <dir>/trace-<proc>.jsonl and
// reads them back, merged into one tree per trace.
func (tr *tracing) merge() ([]*telemetry.MergedTrace, error) {
	for _, t := range []*telemetry.Tracer{tr.glimpsed, tr.measured, tr.fleet} {
		if err := t.Err(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	var procs []telemetry.ProcTrace
	for _, proc := range sortedKeys(tr.bufs) {
		path := filepath.Join(tr.dir, "trace-"+proc+".jsonl")
		if err := os.WriteFile(path, tr.bufs[proc].bytes(), 0o644); err != nil {
			return nil, err
		}
		evs, err := readTrace(path)
		if err != nil {
			return nil, err
		}
		procs = append(procs, telemetry.ProcTrace{Proc: proc, Events: evs})
	}
	return telemetry.MergeTraces(procs), nil
}

func readTrace(path string) ([]telemetry.SpanEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []telemetry.SpanEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// rollup turns the traced run's spans into per-layer metrics: per-stage
// self times from telemetry's StageRollup (normalized per job or fleet
// task), per-span medians, and trace.self_coverage, the share of the
// traced job time that the named stages below job and step account for.
func (tr *tracing) rollup(rd *runData, out map[string]metric) error {
	traces, err := tr.merge()
	if err != nil {
		return err
	}
	totals := map[string]telemetry.StageStat{}
	spans := map[string]*stageSpans{}
	var walk func(n *telemetry.MergedSpan)
	walk = func(n *telemetry.MergedSpan) {
		if n.Event.Kind == "span" {
			st := spans[n.Event.Stage]
			if st == nil {
				st = &stageSpans{}
				spans[n.Event.Stage] = st
			}
			st.durMS = append(st.durMS, float64(n.Event.DurUS)/1000)
			st.selfMS = append(st.selfMS, float64(n.SelfUS())/1000)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range traces {
		for _, st := range t.StageRollup() {
			acc := totals[st.Stage]
			acc.Stage = st.Stage
			acc.Spans += st.Spans
			acc.TotalUS += st.TotalUS
			acc.SelfUS += st.SelfUS
			totals[st.Stage] = acc
		}
		for _, r := range t.Roots {
			walk(r)
		}
	}
	get := func(stage string) *stageSpans {
		if st := spans[stage]; st != nil {
			return st
		}
		return &stageSpans{}
	}
	n := float64(rd.jobs())
	perJob := func(stage string) float64 { return float64(totals[stage].SelfUS) / 1000 / n }
	out["anneal.self_ms_per_job"] = metric{perJob(telemetry.StageAnneal), "ms"}
	out["gp.fit_ms_per_job"] = metric{perJob(telemetry.StageSurrogateTrain), "ms"}
	out["gp.score_ms_per_job"] = metric{perJob(telemetry.StageSurrogateScore), "ms"}
	out["acq.score_ms_per_job"] = metric{perJob(telemetry.StageAcquisition), "ms"}
	out["sampler.vote_ms_per_job"] = metric{perJob(telemetry.StageEnsembleVote), "ms"}
	out["fleet.dispatch_self_ms_per_task"] = metric{perJob(telemetry.StageDispatch), "ms"}
	out["core.steps_per_job"] = metric{float64(totals[telemetry.StageStep].Spans) / n, "count"}
	out["prior.sample_ms"] = metric{median(get(telemetry.StagePriorSample).durMS), "ms"}
	out["server.queue_wait_ms"] = metric{median(get(telemetry.StageQueueWait).durMS), "ms"}
	out["core.step_ms_p50"] = metric{median(get(telemetry.StageStep).durMS), "ms"}
	out["measure.batch_ms"] = metric{median(get(telemetry.StageMeasure).durMS), "ms"}
	out["measure.rpc_self_ms"] = metric{median(get(telemetry.StageRPCMeasure).selfMS), "ms"}
	out["fleet.checkpoint_ms"] = metric{median(get(telemetry.StageCheckpoint).durMS), "ms"}

	// In a service trace everything but queue_wait nests under the job
	// span, so the named stages' self time over the job time is how much
	// of it they explain; the rest is job and step bookkeeping (and, on
	// serve_cold, toolkit training, which has no stage).
	coverage := 0.0
	if jobUS := totals[telemetry.StageJob].TotalUS; jobUS > 0 {
		named := int64(0)
		for stage, st := range totals {
			switch stage {
			case telemetry.StageJob, telemetry.StageStep, telemetry.StageQueueWait:
			default:
				named += st.SelfUS
			}
		}
		coverage = float64(named) / float64(jobUS)
	}
	out["trace.self_coverage"] = metric{coverage, "share"}

	var names []string
	for _, stage := range sortedKeys(totals) {
		names = append(names, fmt.Sprintf("%s=%.1fms", stage, float64(totals[stage].SelfUS)/1000))
	}
	rd.notes = append(rd.notes, "stage self times: "+strings.Join(names, " "))
	return nil
}
