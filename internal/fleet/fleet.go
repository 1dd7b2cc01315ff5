// Package fleet orchestrates whole-model, multi-GPU tuning — the
// deployment scenario that motivates the paper (§1 prices "10 DNN models
// on 100 different GPUs" at ~10,000 GPU hours). Scheduler.Run tunes every
// task of a model on every target GPU concurrently over a pool of
// measurement endpoints and assembles one deployment Plan (best
// configuration, kernel source, and end-to-end latency) per device.
package fleet

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/codegen"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// TaskPlan is the deployment decision for one tuning task. A task whose
// tuning session failed (device crash, exhausted retries, no valid
// configuration) is recorded with Failed set and the error preserved, so a
// partial plan still documents exactly what was lost.
type TaskPlan struct {
	TaskName    string  `json:"task"`
	TaskIndex   int     `json:"task_index"`
	Kind        string  `json:"kind"`
	ConfigIndex int64   `json:"config_index"`
	Schedule    string  `json:"schedule"`
	GFLOPS      float64 `json:"gflops"`
	TimeMS      float64 `json:"time_ms"`
	Repeats     int     `json:"repeats"`
	Kernel      string  `json:"kernel,omitempty"`
	// Per-task measurement accounting (also what checkpoint resume
	// restores without re-measuring).
	GPUSeconds   float64 `json:"gpu_seconds,omitempty"`
	Measurements int     `json:"measurements,omitempty"`
	Invalid      int     `json:"invalid,omitempty"`
	// Failure bookkeeping.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// FromCheckpoint marks a task restored from a previous session.
	FromCheckpoint bool `json:"from_checkpoint,omitempty"`
	// FromCache marks a task served from the tuned-config cache with zero
	// measurements (exact fingerprint + device hit).
	FromCache bool `json:"from_cache,omitempty"`
	// WarmStarted marks a task whose session was seeded from cache donors
	// under a shrunken budget.
	WarmStarted bool `json:"warm_started,omitempty"`
}

// Plan is the deployment artifact for one model on one GPU. A plan with
// FailedTasks > 0 is partial: its latency covers only the surviving tasks.
type Plan struct {
	Model        string     `json:"model"`
	GPU          string     `json:"gpu"`
	Tasks        []TaskPlan `json:"tasks"`
	LatencyMS    float64    `json:"latency_ms"`
	GPUSeconds   float64    `json:"gpu_seconds"`
	Measurements int        `json:"measurements"`
	Invalid      int        `json:"invalid"`
	FailedTasks  int        `json:"failed_tasks,omitempty"`
	ResumedTasks int        `json:"resumed_tasks,omitempty"`
	CachedTasks  int        `json:"cached_tasks,omitempty"`
}

// Complete reports whether every task produced a deployable configuration.
func (p *Plan) Complete() bool { return p.FailedTasks == 0 }

// FailedTaskPlans returns the tasks that did not survive tuning.
func (p *Plan) FailedTaskPlans() []TaskPlan {
	var out []TaskPlan
	for _, tp := range p.Tasks {
		if tp.Failed {
			out = append(out, tp)
		}
	}
	return out
}

// Config controls a fleet tuning session.
type Config struct {
	Model string
	// Tasks restricts tuning to a subset (default: every task of Model).
	Tasks []workload.Task
	// Budget per task.
	Budget tuner.Budget
	// NewTuner builds the tuner for one (task, gpu) pair.
	NewTuner func(task workload.Task, gpu string) (tuner.Tuner, error)
	// GenerateKernels embeds generated kernel source in the plan.
	GenerateKernels bool
	// Checkpoint, when set, records each completed task and lets a
	// resumed session skip tasks already recorded for the same run: model,
	// GPU, tuner name, task seed and Budget (CheckpointKey).
	Checkpoint *Checkpoint
	// Cache, when set, decides each task before it tunes by
	// cache.Store.Decide, the policy glimpsed shares: an exact hit is
	// served with zero measurements, a miss may warm-start, and new bests
	// are written back unless the store is readonly.
	Cache *cache.Store
	// Tracer records one "task" span per tuning task plus "checkpoint"
	// spans and failure events (nil: tracing disabled). The tracer is safe
	// for the concurrent task goroutines; it observes only and never
	// steers scheduling or seeding.
	Tracer *telemetry.Tracer
	// Trace parents every task span into a caller's trace (glimpsed
	// stamps the job context here), flowing from there through dispatch
	// spans onto the RPC wire. Zero roots the task spans locally; like
	// Tracer, it carries identity only and never steers scheduling.
	Trace telemetry.SpanContext
}

func (c *Config) resolve() error {
	if c.NewTuner == nil {
		return fmt.Errorf("fleet: Config.NewTuner is required")
	}
	if len(c.Tasks) == 0 {
		tasks, err := workload.Tasks(c.Model)
		if err != nil {
			return err
		}
		c.Tasks = tasks
	}
	return nil
}

// TuneTask tunes one task on one device-labelled measurer: checkpoint
// lookup, tuned-config cache exact hit or donor warm start, tuning
// session, optional kernel generation, checkpoint append and cache
// write-back. Every per-task decision of Scheduler.Run and cmd/glimpse
// lives here. Per-task failures (device crash, exhausted retries, no
// valid configuration, codegen errors) come back as a TaskPlan with
// Failed set; the returned error is fatal only (checkpoint or cache I/O).
// g is the task's own stream: callers split it by task name, so results
// do not depend on which goroutine, shard, or endpoint runs the task.
// cfg is used as given (Scheduler.Run fills its defaults first).
func TuneTask(cfg *Config, m measure.Measurer, task workload.Task, g *rng.RNG) (TaskPlan, error) {
	tsp, taskSC := cfg.Tracer.StartSpan(cfg.Trace, telemetry.StageTask)
	tsp.SetAttr("task", task.Name())
	tsp.SetAttr("gpu", m.DeviceName())
	defer tsp.End()

	failed := func(err error) TaskPlan {
		tsp.SetAttr("outcome", "failed")
		cfg.Tracer.EventCtx(taskSC, telemetry.StageTask, map[string]any{
			"event": "task_failed", "task": task.Name(), "gpu": m.DeviceName(), "error": err.Error(),
		})
		return TaskPlan{
			TaskName:    task.Name(),
			TaskIndex:   task.Index,
			Kind:        task.Kind.String(),
			ConfigIndex: -1,
			Repeats:     task.Repeats,
			Failed:      true,
			Error:       err.Error(),
		}
	}

	// A checkpoint keys on the tuner's name, so it needs the tuner before
	// the lookup; without one the tuner is built only if a session runs.
	var tn tuner.Tuner
	var ckKey CheckpointKey
	if cfg.Checkpoint != nil {
		var err error
		if tn, err = cfg.NewTuner(task, m.DeviceName()); err != nil {
			return failed(err), nil
		}
		ckKey = CheckpointKey{Model: cfg.Model, GPU: m.DeviceName(), Tuner: tn.Name(),
			Task: task.Name(), Seed: g.Seed(), Budget: cfg.Budget}
		if tp, ok := cfg.Checkpoint.Lookup(ckKey); ok {
			tp.FromCheckpoint = true
			tsp.SetAttr("outcome", "resumed")
			return tp, nil
		}
	}
	sp, err := space.ForTask(task)
	if err != nil {
		return failed(err), nil
	}

	// Tuned-config cache: an exact hit is the result, with zero
	// measurements; a miss may seed the session from the nearest donors.
	dec := cfg.Cache.Decide(cfg.Tracer, taskSC, task, sp, m.DeviceName())
	var res *tuner.Result
	var warm bool
	if dec.Hit {
		res = dec.HitResult()
	} else {
		if tn == nil {
			if tn, err = cfg.NewTuner(task, m.DeviceName()); err != nil {
				return failed(err), nil
			}
		}
		// Parent the tuner's step/measure spans under this task span, and
		// bind the measurer chain so remote endpoints record their side
		// under the same trace. Both are identity-only: tuners and
		// measurers that support neither still run identically.
		if tb, ok := tn.(interface {
			SetTraceContext(telemetry.SpanContext)
		}); ok {
			tb.SetTraceContext(taskSC)
		}
		measure.BindTrace(m, taskSC)
		var budget tuner.Budget
		budget, warm = dec.Apply(tn, cfg.Budget)
		if res, err = tn.Tune(task, sp, m, budget, g); err != nil {
			return failed(fmt.Errorf("fleet: %s: %w", task.Name(), err)), nil
		}
		if res.BestIndex < 0 {
			return failed(fmt.Errorf("fleet: %s: no valid configuration found", task.Name())), nil
		}
	}
	tp := TaskPlan{
		TaskName:     task.Name(),
		TaskIndex:    task.Index,
		Kind:         task.Kind.String(),
		ConfigIndex:  res.BestIndex,
		Schedule:     sp.Describe(sp.FromIndex(res.BestIndex)),
		GFLOPS:       res.BestGFLOPS,
		TimeMS:       res.BestTimeMS,
		Repeats:      task.Repeats,
		GPUSeconds:   res.GPUSeconds,
		Measurements: res.Measurements,
		Invalid:      res.Invalid,
		FromCache:    dec.Hit,
		WarmStarted:  warm,
	}
	if cfg.GenerateKernels {
		kern, err := codegen.Lower(task, sp, sp.FromIndex(res.BestIndex))
		if err != nil {
			return failed(err), nil
		}
		tp.Kernel = kern.Render()
	}
	// A hit is neither checkpointed nor written back: the store already
	// holds it.
	if dec.Hit {
		tsp.SetAttr("outcome", "cached")
		return tp, nil
	}
	if cfg.Checkpoint != nil {
		csp, _ := cfg.Tracer.StartSpan(taskSC, telemetry.StageCheckpoint)
		csp.SetAttr("task", task.Name())
		err := cfg.Checkpoint.Append(ckKey, tp)
		csp.End()
		if err != nil {
			return tp, fmt.Errorf("fleet: checkpoint %s: %w", task.Name(), err)
		}
	}
	if err := dec.Record(cfg.Model, res); err != nil {
		return tp, fmt.Errorf("fleet: cache put %s: %w", task.Name(), err)
	}
	tsp.SetAttr("outcome", "ok")
	tsp.SetAttr("measurements", res.Measurements)
	return tp, nil
}

// assemblePlan rolls completed task plans (in task order) into the
// deployment plan for one (model, gpu).
func assemblePlan(model, gpu string, tasks []workload.Task, tps []TaskPlan) *Plan {
	plan := &Plan{Model: model, GPU: gpu}
	for _, tp := range tps {
		plan.Tasks = append(plan.Tasks, tp)
		if tp.Failed {
			plan.FailedTasks++
			continue
		}
		if tp.FromCheckpoint {
			plan.ResumedTasks++
		}
		if tp.FromCache {
			plan.CachedTasks++
		}
		plan.GPUSeconds += tp.GPUSeconds
		plan.Measurements += tp.Measurements
		plan.Invalid += tp.Invalid
	}
	plan.LatencyMS = assembleLatency(tasks, plan.Tasks)
	return plan
}

// assembleLatency sums per-layer kernel times, picking the faster of the
// direct and winograd variants for each convolution shape.
func assembleLatency(tasks []workload.Task, plans []TaskPlan) float64 {
	byIndex := map[int]TaskPlan{}
	for _, tp := range plans {
		if tp.Failed {
			continue // partial plan: latency covers surviving tasks only
		}
		byIndex[tp.TaskIndex] = tp
	}
	// Per-shape minima are summed in first-seen task order, not map
	// order: float addition is not associative, and Plan.LatencyMS must
	// be bit-identical between identical runs.
	bestConv := map[workload.ConvShape]float64{}
	repeats := map[workload.ConvShape]int{}
	var shapes []workload.ConvShape
	total := 0.0
	for _, task := range tasks {
		tp, ok := byIndex[task.Index]
		if !ok {
			continue
		}
		if task.Kind == workload.Dense {
			total += tp.TimeMS * float64(task.Repeats)
			continue
		}
		old, seen := bestConv[task.Conv]
		if !seen {
			shapes = append(shapes, task.Conv)
		}
		if !seen || tp.TimeMS < old {
			bestConv[task.Conv] = tp.TimeMS
		}
		repeats[task.Conv] = task.Repeats
	}
	for _, shape := range shapes {
		total += bestConv[shape] * float64(repeats[shape])
	}
	return total
}

// Save writes the plan as JSON.
func (p *Plan) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadPlan reads a plan saved by Save.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fleet: parse plan %s: %w", path, err)
	}
	if p.Model == "" || len(p.Tasks) == 0 {
		return nil, fmt.Errorf("fleet: plan %s is empty", path)
	}
	return &p, nil
}
