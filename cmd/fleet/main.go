// Command fleet tunes a model across a fleet of GPUs and writes one
// deployment plan (best schedule + kernel per task, end-to-end latency)
// per device — the multi-hardware scenario that motivates the paper.
//
// Usage:
//
//	fleet -model resnet-18 -gpus titan-xp,rtx-3090 -tuner glimpse \
//	      -budget 128 -out plans/ [-kernels] [-artifacts dir] \
//	      [-checkpoint tune.ckpt] [-retries 3] [-batch-timeout 30s] [-workers N] \
//	      [-endpoints 200] [-shards 4] [-steal] [-speculate] \
//	      [-chaos flap] [-chaos-seed 1] [-chaos-frac 0.1] \
//	      [-trace path] [-debug-addr 127.0.0.1:6060] \
//	      [-cache path] [-warm-k 3] [-cache-readonly]
//
// -cache points at a persistent tuned-config store shared across runs and
// devices: an exact (workload, GPU) hit is served with zero measurements,
// and a first-time GPU warm-starts each task from the -warm-k nearest
// donor SKUs in Blueprint space under a shrunken budget. New bests are
// written back unless -cache-readonly is set.
//
// -trace writes a JSONL span trace (per-task tuning spans, checkpoint
// writes, measurement degradation events); aggregate with cmd/tracereport.
// -debug-addr serves net/http/pprof plus /telemetryz for live introspection
// of a long fleet run.
//
// Every run goes through the fleet scheduler: targets are grouped into
// -shards Blueprint-affinity shards, -steal lets idle shards take queued
// tasks and borrow endpoints, and -speculate re-issues straggling
// measurement chunks. With -endpoints 0 (default) the pool is one
// in-process simulator per target GPU. With -endpoints N > 0 it is N
// simulated endpoints that each host every target, and -chaos injects a
// deterministic churn schedule (see internal/faults) into a -chaos-frac
// fraction of them. The best-found plans are the same for every pool and
// every chaos schedule by construction.
//
// With -tuner glimpse, offline artifacts are trained per target (cached
// under -artifacts if given). Other tuners: autotvm, chameleon, random.
//
// Measurements run behind measure.Reliable (bounded retries with backoff,
// per-device circuit breaker, batch deadline), so a degrading device yields
// a partial plan instead of aborting the fleet. With -checkpoint, every
// completed task is recorded in a JSONL file and a rerun with the same file
// re-measures only the tasks that failed or never ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/fleet"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/metrics"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func main() {
	model := flag.String("model", workload.ResNet18, "model to deploy")
	gpus := flag.String("gpus", strings.Join(hwspec.Targets, ","), "comma-separated target GPUs")
	tunerName := flag.String("tuner", "glimpse", "glimpse | autotvm | chameleon | random")
	budget := flag.Int("budget", 128, "measurements per task")
	out := flag.String("out", "", "directory for per-GPU plan JSON files")
	kernels := flag.Bool("kernels", false, "embed generated kernel source in plans")
	artifacts := flag.String("artifacts", "", "toolkit cache directory (glimpse only)")
	seed := flag.Int64("seed", 1, "random seed")
	ckptPath := flag.String("checkpoint", "", "JSONL checkpoint file (resume skips recorded tasks)")
	retries := flag.Int("retries", 3, "measurement attempts per batch before giving up")
	batchTimeout := flag.Duration("batch-timeout", 30*time.Second, "deadline per measurement batch")
	workers := flag.Int("workers", runtime.NumCPU(), "goroutines for search and scoring (results are identical for any value)")
	endpoints := flag.Int("endpoints", 0, "simulated measurement endpoints hosting every target (0: one in-process endpoint per target GPU)")
	shards := flag.Int("shards", 0, "device-group shards by Blueprint affinity (0: one shard per target GPU)")
	steal := flag.Bool("steal", true, "steal queued tasks and borrow endpoints across shards")
	speculate := flag.Bool("speculate", true, "re-issue straggling measurement chunks speculatively")
	chaos := flag.String("chaos", "none", "endpoint churn schedule: none | flap | spike | slow-degrade | crash | churn")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed fixing the chaos schedule")
	chaosFrac := flag.Float64("chaos-frac", 0.1, "fraction of endpoints the chaos schedule churns")
	tracePath := flag.String("trace", "", "write a JSONL span trace of the fleet run to this file")
	debugAddr := flag.String("debug-addr", "", "serve pprof and /telemetryz on this address (empty: disabled)")
	cachePath := flag.String("cache", "", "persistent tuned-config store (JSONL; exact hits skip tuning, misses warm-start)")
	warmK := flag.Int("warm-k", 3, "with -cache: nearest donor devices per warm start")
	cacheReadonly := flag.Bool("cache-readonly", false, "with -cache: serve and warm-start but never write")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, nil)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "fleet: trace write error:", err)
			}
		}()
	}
	if *debugAddr != "" {
		mux := telemetry.NewDebugMux(nil, map[string]telemetry.SnapshotFunc{
			"pool": func() any { return parallel.Stats() },
		})
		dbgBound, closeDebug, err := telemetry.ServeDebug(*debugAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		defer closeDebug()
		fmt.Fprintf(os.Stderr, "fleet: debug endpoints (pprof, /telemetryz) on http://%s\n", dbgBound)
	}

	var targets []string
	for _, n := range strings.Split(*gpus, ",") {
		targets = append(targets, strings.TrimSpace(n))
	}
	g := rng.New(*seed)

	// For Glimpse, prepare one toolkit per target up front.
	var mu sync.Mutex
	toolkits := map[string]*core.Toolkit{}
	toolkitFor := func(gpu string) (*core.Toolkit, error) {
		mu.Lock()
		defer mu.Unlock()
		if tk, ok := toolkits[gpu]; ok {
			return tk, nil
		}
		var path string
		if *artifacts != "" {
			path = filepath.Join(*artifacts, gpu+".toolkit.json")
		}
		fmt.Fprintf(os.Stderr, "fleet: loading or training artifacts for %s...\n", gpu)
		tk, err := core.LoadOrTrainToolkit(path, gpu, g.Split("toolkit/"+gpu))
		if err != nil {
			return nil, err
		}
		toolkits[gpu] = tk
		return tk, nil
	}

	cfg := fleet.Config{
		Model:           *model,
		Budget:          tuner.Budget{MaxMeasurements: *budget, Patience: 4, Epsilon: 0.01},
		GenerateKernels: *kernels,
		Tracer:          tracer,
		NewTuner: func(task workload.Task, gpu string) (tuner.Tuner, error) {
			switch *tunerName {
			case "glimpse":
				tk, err := toolkitFor(gpu)
				if err != nil {
					return nil, err
				}
				gl := tk.Tuner()
				gl.Tracer = tracer
				return gl, nil
			case "autotvm":
				return tuner.AutoTVM{}, nil
			case "chameleon":
				return tuner.Chameleon{}, nil
			case "random":
				return tuner.Random{}, nil
			default:
				return nil, fmt.Errorf("unknown tuner %q", *tunerName)
			}
		},
	}

	var store *cache.Store
	if *cachePath != "" {
		var err error
		if *cacheReadonly {
			store, err = cache.OpenReadOnly(*cachePath)
		} else {
			store, err = cache.Open(*cachePath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		defer store.Close()
		if n := store.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "fleet: tuned-config cache: %d entries in %s\n", n, *cachePath)
		}
		cfg.Cache = store
		cfg.WarmK = *warmK
	}

	if *ckptPath != "" {
		ck, err := fleet.OpenCheckpoint(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		defer ck.Close()
		if n := ck.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "fleet: resuming, %d tasks already checkpointed in %s\n", n, *ckptPath)
		}
		cfg.Checkpoint = ck
	}

	var eps []fleet.Endpoint
	if *endpoints > 0 {
		scenario, err := faults.ScenarioByName(*chaos, *chaosSeed, *endpoints, *chaosFrac, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		eps = make([]fleet.Endpoint, *endpoints)
		for i := range eps {
			i := i
			eps[i] = fleet.Endpoint{
				Name: fmt.Sprintf("sim-%03d", i),
				Dial: func(gpu string) (measure.Measurer, error) {
					local, err := measure.NewLocal(gpu)
					if err != nil {
						return nil, err
					}
					return scenario.Wrap(i, local), nil
				},
			}
		}
		if *chaos != "none" {
			fmt.Fprintf(os.Stderr, "fleet: chaos %q (seed %d, frac %.2f) on %d endpoints\n",
				*chaos, *chaosSeed, *chaosFrac, *endpoints)
		}
	} else {
		// Build each target's simulator up front, so an unknown GPU name
		// is a configuration error rather than a plan of failed tasks.
		for _, gpu := range targets {
			local, err := measure.NewLocal(gpu)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleet:", err)
				os.Exit(1)
			}
			eps = append(eps, fleet.Endpoint{
				Name:  gpu,
				Hosts: []string{gpu},
				Dial:  func(string) (measure.Measurer, error) { return local, nil },
			})
		}
	}
	sched, err := fleet.NewScheduler(fleet.SchedulerConfig{
		Shards:    *shards,
		Steal:     *steal,
		Speculate: *speculate,
		Reliable: measure.ReliableConfig{
			MaxAttempts:  *retries,
			BatchTimeout: *batchTimeout,
			Seed:         *seed,
			EventSink: func(e measure.Event) {
				tracer.Event(telemetry.StageMeasure, map[string]any{
					"event": e.Kind, "backend": e.Backend, "task": e.Task, "detail": e.Detail,
				})
			},
		},
	}, eps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
	plans, err := sched.Run(cfg, targets, g.Split("fleet"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
	st := sched.Stats()
	fmt.Fprintf(os.Stderr,
		"fleet: scheduler: %d tasks (%d stolen), %d chunks (%d retried), %d endpoint steals, %d speculations (%d won)\n",
		st.TasksDone, st.TasksStolen, st.Chunks, st.ChunkRetries,
		st.EndpointSteals, st.Speculations, st.SpeculativeWins)

	table := metrics.NewTable(
		fmt.Sprintf("Deployment plans: %s via %s (%d measurements/task)", *model, *tunerName, *budget),
		"gpu", "latency ms", "GPU s", "measured", "invalid", "failed", "resumed", "cached")
	partial := 0
	for _, p := range plans {
		table.AddRowf(p.GPU, fmt.Sprintf("%.4f", p.LatencyMS), fmt.Sprintf("%.0f", p.GPUSeconds),
			p.Measurements, p.Invalid, p.FailedTasks, p.ResumedTasks, p.CachedTasks)
		if !p.Complete() {
			partial++
			for _, tp := range p.FailedTaskPlans() {
				fmt.Fprintf(os.Stderr, "fleet: %s/%s failed: %s\n", p.GPU, tp.TaskName, tp.Error)
			}
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "fleet:", err)
				os.Exit(1)
			}
			path := filepath.Join(*out, fmt.Sprintf("%s.%s.plan.json", *model, p.GPU))
			if err := p.Save(path); err != nil {
				fmt.Fprintln(os.Stderr, "fleet:", err)
				os.Exit(1)
			}
		}
	}
	fmt.Print(table.String())
	if *out != "" {
		fmt.Printf("plans written to %s/\n", *out)
	}
	if partial > 0 {
		hint := ""
		if *ckptPath != "" {
			hint = fmt.Sprintf(" — rerun with -checkpoint %s to re-measure only the failed tasks", *ckptPath)
		}
		fmt.Fprintf(os.Stderr, "fleet: %d of %d plans are partial%s\n", partial, len(plans), hint)
	}
	if store != nil {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "fleet: cache: %d hits, %d misses, %d warm starts, %d puts (%d skipped)\n",
			st.Hits, st.Misses, st.WarmStarts, st.Puts, st.PutSkips)
	}
}
