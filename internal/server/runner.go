package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// ToolkitProvider supplies the trained offline toolkit for a (GPU, seed)
// pair. Seeds matter: parity with a one-shot `glimpse -seed N` run
// requires the toolkit trained from rng.New(N).Split("toolkit"), so the
// provider is keyed by both. Implementations must be safe for concurrent
// use.
type ToolkitProvider interface {
	Toolkit(gpu string, seed int64) (*core.Toolkit, error)
}

// trainingToolkits is the default provider: train on first use (the
// leave-target-out discipline of core.TrainToolkit), cache in memory,
// and optionally persist artifacts under a directory so restarts skip
// retraining.
type trainingToolkits struct {
	mu    sync.Mutex
	dir   string
	cache map[string]*core.Toolkit
}

// NewTrainingToolkits returns the default ToolkitProvider. artifactsDir
// may be empty (no persistence).
func NewTrainingToolkits(artifactsDir string) ToolkitProvider {
	return &trainingToolkits{dir: artifactsDir, cache: map[string]*core.Toolkit{}}
}

func (tp *trainingToolkits) Toolkit(gpu string, seed int64) (*core.Toolkit, error) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	key := fmt.Sprintf("%s/%d", gpu, seed)
	if tk, ok := tp.cache[key]; ok {
		return tk, nil
	}
	var path string
	if tp.dir != "" {
		path = filepath.Join(tp.dir, fmt.Sprintf("%s-seed%d.json", strings.ReplaceAll(gpu, "/", "_"), seed))
	}
	tk, err := core.LoadOrTrainToolkit(path, gpu, rng.New(seed).Split("toolkit"))
	if err != nil {
		return nil, err
	}
	tp.cache[key] = tk
	return tk, nil
}

// runJob executes one job to a terminal state, or back to queued on
// drain (ctx canceled), preemption, or a stale checkpoint. It follows
// the exact cmd/glimpse discipline — toolkit from the job's seed, the
// cache policy both CLIs use (cache.Store.Decide), tune with
// rng.New(seed).Split("tune/"+name) — so a job's result is
// byte-identical to the one-shot CLI for the same spec.
func (s *Server) runJob(ctx context.Context, rj *runningJob) {
	j := rj.job
	spec := j.Spec
	s.endQueueWait(j)

	select {
	case <-ctx.Done():
		s.requeue(j, "drained before start")
		return
	default:
	}

	task, err := workload.TaskByIndex(spec.Model, spec.TaskIndex)
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}
	sp, err := space.ForTask(task)
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}
	if left, bounded := s.ledger.Remaining(spec.Tenant); bounded && left <= 0 {
		s.finishJob(j, StateFailed, "tenant GPU-second budget exhausted", nil)
		return
	}
	s.setState(j, StateRunning, "")

	// One "job" span per run attempt, rooted in the job's trace; a
	// preempted job's next attempt opens a sibling span in the same
	// trace. Everything the session does — steps, measure batches, and
	// the endpoints' rpc_measure spans across the wire — parents under
	// jsc.
	jsp, jsc := s.tracer.StartSpan(s.jobTrace(j), telemetry.StageJob)
	jsp.SetAttr("gpu", spec.GPU)
	jsp.SetAttr("model", spec.Model)
	jsp.SetAttr("task", spec.TaskIndex)
	defer jsp.End()

	// Tuned-config store: exact hits skip the session entirely, misses
	// may warm-start from the nearest donor devices.
	dec := s.cache.Decide(s.tracer, jsc, task, sp, spec.GPU)
	if dec.Hit {
		s.mu.Lock()
		j.Cached = true
		s.mu.Unlock()
		s.tenantCounter(mCacheHits, spec.Tenant).Inc()
		s.observeFirstProgress(j)
		jsp.SetAttr("outcome", "cached")
		s.finishJob(j, StateDone, "served from tuned-config cache", dec.HitResult())
		return
	}

	tk, err := s.cfg.Toolkits.Toolkit(spec.GPU, spec.Seed)
	if err != nil {
		s.finishJob(j, StateFailed, fmt.Sprintf("toolkit: %v", err), nil)
		return
	}
	base, closeMeasurer, err := s.cfg.NewMeasurer(spec.GPU)
	if err != nil {
		s.finishJob(j, StateFailed, fmt.Sprintf("measurer: %v", err), nil)
		return
	}
	defer func() {
		if cerr := closeMeasurer(); cerr != nil {
			s.logf("glimpsed: job %s: closing measurer: %v\n", j.ID, cerr)
		}
	}()

	m, prior, err := s.openSessionLog(base, j.ID)
	if err != nil {
		s.finishJob(j, StateFailed, fmt.Sprintf("measurement log: %v", err), nil)
		return
	}
	defer func() {
		if cerr := m.closeLog(); cerr != nil {
			s.logf("glimpsed: job %s: closing measurement log: %v\n", j.ID, cerr)
		}
	}()

	gl := tk.Tuner()
	gl.Workers = s.workerShare()
	jsp.SetAttr("workers", gl.Workers)
	budget, warm := dec.Apply(gl, spec.budget())
	if warm {
		s.mu.Lock()
		j.Warm = true
		s.mu.Unlock()
	}
	if s.tracer != nil {
		gl.Tracer = s.tracer
	}
	gl.SetTraceContext(jsc)
	ts, err := gl.NewTuneSession(task, sp, m.measurer, budget,
		rng.New(spec.Seed).Split("tune/"+task.Name()))
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}

	// Ledger charges are deltas beyond the replayed prefix: the prior
	// run already charged everything its log recorded, so a resumed job's
	// lifetime charges still sum to exactly the session's spend.
	chargedGPU, chargedMeas := 0.0, 0
	for {
		stepStart := s.clock.Now()
		done, err := ts.Step()
		s.tenantHist(mStepMS, spec.Tenant).
			Observe(float64(s.clock.Now().Sub(stepStart).Microseconds()) / 1000)
		if err != nil {
			if errors.Is(err, tlog.ErrReplayDiverged) || errors.Is(err, tlog.ErrReplayShort) {
				// Stale or torn checkpoint (changed binary, killed
				// mid-batch write). Discard it and rerun from scratch:
				// determinism reproduces the same final result.
				s.discardSessionLog(j.ID)
				s.requeue(j, "checkpoint unusable, restarting from scratch")
				return
			}
			s.finishJob(j, StateFailed, err.Error(), nil)
			return
		}
		snap := ts.Snapshot()
		if gpu, meas := snap.GPUSeconds-prior.gpuSeconds, snap.Measurements-prior.measurements; gpu > chargedGPU || meas > chargedMeas {
			s.charge(spec.Tenant, maxF(0, gpu-chargedGPU), maxI(0, meas-chargedMeas))
			chargedGPU, chargedMeas = maxF(gpu, chargedGPU), maxI(meas, chargedMeas)
		}
		s.hub.publish(j.ID, ProgressEvent{
			Kind:         "step",
			Step:         snap.Steps,
			Measurements: snap.Measurements,
			BestGFLOPS:   snap.BestGFLOPS,
			GPUSeconds:   snap.GPUSeconds,
		})
		s.observeFirstProgress(j)
		if done {
			break
		}
		// Yield points between steps: the measurement log is always
		// batch-aligned here, so stopping now checkpoints cleanly.
		select {
		case <-rj.cancel:
			s.finishJob(j, StateCanceled, "canceled by client", nil)
			return
		case <-ctx.Done():
			s.requeue(j, "drained: session checkpointed for restart")
			return
		case <-rj.preempt:
			s.requeue(j, "preempted by higher-priority work")
			return
		default:
		}
	}

	res := ts.Result()
	// Final reconciliation: top the tenant's charges up to the session's
	// exact totals (Finish can record a terminal partial batch).
	s.charge(spec.Tenant,
		maxF(0, res.GPUSeconds-prior.gpuSeconds-chargedGPU),
		maxI(0, res.Measurements-prior.measurements-chargedMeas))
	s.ledger.AddJob(spec.Tenant)

	detail := ""
	if err := dec.Record(spec.Model, res); err != nil {
		detail = fmt.Sprintf("result cached failed: %v", err)
		s.logf("glimpsed: job %s: cache put: %v\n", j.ID, err)
	}
	s.finishJob(j, StateDone, detail, res)
}

// sessionMeasurer bundles the per-job measurement chain: the replayer-
// over-recorder stack plus the log file handle to close when the run
// stops.
type sessionMeasurer struct {
	measurer measure.Measurer
	f        *os.File
}

func (sm *sessionMeasurer) closeLog() error { return sm.f.Close() }

// logPrior is what a job's existing measurement log already paid for —
// the replayed prefix that must not be re-charged to the tenant.
type logPrior struct {
	gpuSeconds   float64
	measurements int
}

// openSessionLog opens the job's measurement log for resume-and-append:
// existing entries replay through a tlog.Replayer (reconstructing the
// interrupted session's state without new GPU spend), and everything
// past them records through a tlog.RecordingMeasurer continuing the
// log's sequence numbers. tlog.OpenAppend repairs a tail torn by a kill;
// appends are not fsync'd, because a kill keeps the page cache and a
// lost suffix only means replaying less.
func (s *Server) openSessionLog(base measure.Measurer, jobID string) (*sessionMeasurer, logPrior, error) {
	path := s.store.measPath(jobID)
	var entries []tlog.Entry
	collect := func(line []byte) error {
		var e tlog.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	}
	f, err := tlog.OpenAppend(path, collect)
	var ioErr *fs.PathError
	if errors.As(err, &ioErr) {
		return nil, logPrior{}, err // an I/O failure, not a corrupt log
	}
	if err != nil {
		// Unreadable checkpoint: discard and start over.
		s.logf("glimpsed: job %s: unreadable measurement log, restarting: %v\n", jobID, err)
		entries = nil
		if err := os.Remove(path); err != nil {
			return nil, logPrior{}, err
		}
		if f, err = tlog.OpenAppend(path, collect); err != nil {
			return nil, logPrior{}, err
		}
	}
	lastSeq := 0
	if len(entries) > 0 {
		lastSeq = entries[len(entries)-1].Seq
	}
	rec := &tlog.RecordingMeasurer{Inner: base, Out: tlog.NewWriter(f, lastSeq)}
	sm := &sessionMeasurer{measurer: rec, f: f}
	prior := logPrior{gpuSeconds: tlog.GPUSeconds(entries), measurements: len(entries)}
	if len(entries) > 0 {
		sm.measurer = tlog.NewReplayer(entries, rec)
	}
	return sm, prior, nil
}

// discardSessionLog deletes a job's measurement log (unusable
// checkpoint).
func (s *Server) discardSessionLog(jobID string) {
	if err := os.Remove(s.store.measPath(jobID)); err != nil && !os.IsNotExist(err) {
		s.logf("glimpsed: job %s: discarding measurement log: %v\n", jobID, err)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
