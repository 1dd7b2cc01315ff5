// Command glimpse tunes a DNN model for a target GPU with the Glimpse
// hardware-aware compiler and prints per-task results.
//
// Usage:
//
//	glimpse -model resnet-18 -gpu titan-xp [-tasks 1,7,17] [-budget 192]
//	        [-seed N] [-compare] [-rpc addr] [-artifacts path] [-log path]
//	        [-checkpoint path] [-fallback-local] [-retries 3] [-workers N]
//	        [-trace path] [-cache path] [-cache-readonly]
//
// With -compare, AutoTVM runs on the same tasks for reference. With -rpc,
// measurements go to a measurement server (cmd/measured) instead of the
// in-process simulator; they then run behind measure.Reliable (batch
// deadline, bounded retries, circuit breaker), and -fallback-local adds the
// in-process simulator as a failover backend so tuning survives a dead
// server. -artifacts caches the trained offline toolkit (loaded when
// saved for -gpu, trained and saved otherwise); -log appends every
// hardware measurement as a JSON line (AutoTVM-style tuning log).
//
// Each task runs through fleet.TuneTask, the per-task protocol cmd/fleet
// uses too. -checkpoint records each finished task in a JSONL file;
// rerunning with the same file and -budget skips them (tuner "glimpse*"),
// and a rerun under another -budget tunes them again. -cache
// points at a persistent tuned-config store (JSONL, created if absent): a
// task whose workload fingerprint and GPU were tuned before is served from
// the store with zero measurements ("glimpse (cache)"), and a task tuned
// before only on *other* GPUs warm-starts from the 3 nearest donors in
// Blueprint space under a shrunken budget ("glimpse (warm)"); cmd/fleet and
// glimpsed apply the same policy (cache.Store.Decide). New bests are
// written back unless -cache-readonly is set (which also never creates or
// modifies the file — safe for concurrent serving). -compare skips the
// tasks served from the checkpoint or the cache. The toolkit is loaded or
// trained only when a task first tunes, so a run served wholly from the
// checkpoint or the cache never trains one.
//
// -trace writes a JSONL span trace: one task span per task, with its cache
// lookup and the tuning loop's stages (prior sampling, annealing,
// surrogate fits, acquisition, measurement) nested under it; aggregate it
// with cmd/tracereport. Tracing observes only — results are byte-identical
// with and without it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/fleet"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/metrics"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func main() {
	model := flag.String("model", workload.ResNet18, "model: alexnet | resnet-18 | vgg-16")
	gpu := flag.String("gpu", hwspec.TitanXp, "target GPU (see cmd/blueprintctl list)")
	taskList := flag.String("tasks", "", "comma-separated 1-based task indices (default: all)")
	budget := flag.Int("budget", 192, "hardware measurements per task")
	seed := flag.Int64("seed", 1, "random seed")
	compare := flag.Bool("compare", false, "also run AutoTVM for reference")
	rpcAddr := flag.String("rpc", "", "measurement server address (default: in-process simulator)")
	artifacts := flag.String("artifacts", "", "toolkit artifact cache path (load or train+save)")
	logPath := flag.String("log", "", "append measurements to this JSONL tuning log")
	ckptPath := flag.String("checkpoint", "", "JSONL checkpoint file (resume skips recorded tasks)")
	fallbackLocal := flag.Bool("fallback-local", false, "with -rpc: fail over to the in-process simulator")
	retries := flag.Int("retries", 3, "with -rpc: measurement attempts per batch")
	batchTimeout := flag.Duration("batch-timeout", 30*time.Second, "with -rpc: deadline per measurement batch")
	workers := flag.Int("workers", runtime.NumCPU(), "goroutines for search and scoring (results are identical for any value)")
	tracePath := flag.String("trace", "", "write a JSONL span trace of the tuning stages to this file")
	cachePath := flag.String("cache", "", "persistent tuned-config store (JSONL; exact hits skip tuning, misses warm-start)")
	cacheReadonly := flag.Bool("cache-readonly", false, "with -cache: serve and warm-start but never write")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, nil)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "glimpse: trace write error:", err)
			}
		}()
	}

	tasks, err := workload.Tasks(*model)
	if err != nil {
		fail(err)
	}
	if *taskList != "" {
		var picked []workload.Task
		for _, s := range strings.Split(*taskList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(fmt.Errorf("bad task index %q: %w", s, err))
			}
			task, err := workload.TaskByIndex(*model, n)
			if err != nil {
				fail(err)
			}
			picked = append(picked, task)
		}
		tasks = picked
	}

	var m measure.Measurer
	if *rpcAddr != "" {
		remote, err := measure.Dial(*rpcAddr, *gpu)
		if err != nil {
			fail(err)
		}
		defer remote.Close()
		chain := []measure.Measurer{remote}
		if *fallbackLocal {
			local, err := measure.NewLocal(*gpu)
			if err != nil {
				fail(err)
			}
			chain = append(chain, local)
		}
		m, err = measure.NewReliable(measure.ReliableConfig{
			MaxAttempts:  *retries,
			BatchTimeout: *batchTimeout,
			Seed:         *seed,
			EventSink: func(e measure.Event) {
				tracer.Event(telemetry.StageMeasure, map[string]any{
					"event": e.Kind, "backend": e.Backend, "task": e.Task, "detail": e.Detail,
				})
			},
		}, chain...)
		if err != nil {
			fail(err)
		}
	} else {
		local, err := measure.NewLocal(*gpu)
		if err != nil {
			fail(err)
		}
		m = local
	}

	if *logPath != "" {
		// Resume sequence numbering from whatever the log already holds, so
		// appended sessions extend it instead of restarting at 1.
		lastSeq := 0
		f, err := tlog.OpenAppend(*logPath, func(line []byte) error {
			var e tlog.Entry
			if err := json.Unmarshal(line, &e); err != nil {
				return err
			}
			lastSeq = e.Seq
			return nil
		})
		if err != nil {
			fail(fmt.Errorf("-log %s: %w", *logPath, err))
		}
		defer f.Close()
		m = &tlog.RecordingMeasurer{Inner: m, Out: tlog.NewWriter(f, lastSeq)}
	}

	g := rng.New(*seed)
	toolkit := sync.OnceValues(func() (*core.Toolkit, error) {
		fmt.Fprintf(os.Stderr, "loading or training Glimpse offline artifacts for %s (leave-target-out)...\n", *gpu)
		return core.LoadOrTrainToolkit(*artifacts, *gpu, g.Split("toolkit"))
	})

	var store *cache.Store
	if *cachePath != "" {
		if store, err = cache.OpenMode(*cachePath, *cacheReadonly); err != nil {
			fail(err)
		}
		defer store.Close()
		if n := store.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "tuned-config cache: %d entries in %s\n", n, *cachePath)
		}
	}

	var ck *fleet.Checkpoint
	if *ckptPath != "" {
		ck, err = fleet.OpenCheckpoint(*ckptPath)
		if err != nil {
			fail(err)
		}
		defer ck.Close()
	}

	bud := tuner.Budget{MaxMeasurements: *budget, Patience: 4, Epsilon: 0.01}
	cfg := fleet.Config{
		Model:      *model,
		Budget:     bud,
		Checkpoint: ck,
		Cache:      store,
		Tracer:     tracer,
		NewTuner: func(workload.Task, string) (tuner.Tuner, error) {
			return &core.LazyGlimpse{Toolkit: toolkit, Tracer: tracer}, nil
		},
	}
	table := metrics.NewTable(
		fmt.Sprintf("Glimpse tuning %s on %s (%d measurements/task)", *model, *gpu, *budget),
		"task", "tuner", "best GFLOPS", "kernel ms", "measured", "invalid", "GPU s")
	resumed := 0
	for _, task := range tasks {
		tp, err := fleet.TuneTask(&cfg, m, task, g.Split("tune/"+task.Name()))
		if err != nil {
			fail(err)
		}
		if tp.Failed {
			fail(errors.New(tp.Error))
		}
		name := "glimpse"
		switch {
		case tp.FromCheckpoint:
			name = "glimpse*"
			resumed++
		case tp.FromCache:
			name = "glimpse (cache)"
		case tp.WarmStarted:
			name = "glimpse (warm)"
		}
		table.AddRowf(task.Name(), name,
			fmt.Sprintf("%.0f", tp.GFLOPS), fmt.Sprintf("%.4f", tp.TimeMS),
			tp.Measurements, tp.Invalid, fmt.Sprintf("%.0f", tp.GPUSeconds))
		if *compare && !tp.FromCheckpoint && !tp.FromCache {
			sp, err := space.ForTask(task)
			if err != nil {
				fail(err)
			}
			atvm := tuner.AutoTVM{}
			atvm.Anneal.Tracer = tracer
			atvm.Model.Tracer = tracer
			ares, err := atvm.Tune(task, sp, m, bud, g.Split("autotvm/"+task.Name()))
			if err != nil {
				fail(err)
			}
			table.AddRowf("", "autotvm",
				fmt.Sprintf("%.0f", ares.BestGFLOPS), fmt.Sprintf("%.4f", ares.BestTimeMS),
				ares.Measurements, ares.Invalid, fmt.Sprintf("%.0f", ares.GPUSeconds))
		}
	}
	fmt.Print(table.String())
	if ck != nil {
		fmt.Fprintf(os.Stderr, "resumed: %d of %d tasks from %s\n", resumed, len(tasks), *ckptPath)
	}
	if store != nil {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d warm starts, %d puts (%d skipped)\n",
			st.Hits, st.Misses, st.WarmStarts, st.Puts, st.PutSkips)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "glimpse:", err)
	os.Exit(1)
}
