package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/server"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// coldTasks are serve_cold's jobs, one per never-seen GPU (the i-th
// task goes to the i-th GPU): a conv, a winograd conv and a dense layer.
var coldTasks = []struct {
	model string
	index int
}{
	{workload.ResNet18, 7},
	{workload.AlexNet, 3},
	{workload.VGG16, 16},
}

// runServeCold: every job targets a GPU the server's toolkit provider has
// never seen, so core.TrainToolkit runs on the request path before a
// small tune. One client submits them in turn: with two, the second job
// would wait behind the first one's training (cross-tenant head-of-line
// blocking, a separate problem), and its ttfp would measure that wait.
func runServeCold(o *options, tr *tracing) (*runData, error) {
	sz := o.size
	if sz.coldGPUs > len(hwspec.Targets) || sz.coldGPUs > len(coldTasks) {
		return nil, fmt.Errorf("serve_cold: at most %d GPUs", len(coldTasks))
	}
	gpus := hwspec.Targets[len(hwspec.Targets)-sz.coldGPUs:]
	seed := int64(tuneSeed)
	// The workload seed orders the jobs; each GPU keeps its task.
	order := rng.New(o.seed).Split("serve_cold/order").Perm(len(gpus))

	rd := &runData{}
	run := 0
	if tr != nil {
		run = 1
	}
	d, err := repeatSetup(rd, func(i int) (*daemon, error) {
		return startDaemon(daemonConfig{stateDir: filepath.Join(o.dir, fmt.Sprintf("cold-%d-state-%d", run, i)),
			gpus: gpus, toolkits: sz.coldToolkits(), tr: tr})
	})
	if err != nil {
		return nil, err
	}

	mark := markAfterGC()
	ls := closedLoop(d.base, 1, func(i int, _ time.Duration) (server.JobSpec, bool) {
		if i >= len(gpus) {
			return server.JobSpec{}, false
		}
		k := order[i]
		t := coldTasks[k]
		return server.JobSpec{Model: t.model, TaskIndex: t.index, GPU: gpus[k],
			Seed: seed, Tenant: "bench", MaxMeasurements: sz.coldBudget}, true
	})
	rd.endRegion(mark, totalAlloc())
	rd.apply(ls)

	rd.problems = append(rd.problems, checkBooks(d.base, ls)...)
	if _, _, err := serveLayers(rd, d, ls); err != nil {
		return nil, err
	}
	waits := d.toolkits.waitsMS()
	if len(waits) != len(gpus) {
		rd.problems = append(rd.problems, fmt.Sprintf("%d toolkit lookups for %d cold jobs", len(waits), len(gpus)))
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	if tr != nil && len(waits) > 0 {
		// Time the parts on the last job's GPU, right after its training,
		// so both see the machine in the same state.
		last := gpus[order[len(gpus)-1]]
		if err := toolkitParts(rd, last, seed, sz.partsPrior, sz.partsMeta, waits[len(waits)-1]); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// toolkitParts times the public parts of core.TrainToolkit, called on
// its default inputs for one GPU: the Blueprint embedding, the prior
// generator H, and acquisition meta-training. The task set and meta pool
// follow TrainToolkit's defaults; the configs are the defaults (zero
// values) except in the package test.
func toolkitParts(rd *runData, gpu string, seed int64, pcfg prior.TrainConfig, mcfg acq.MetaConfig,
	waitMS float64) error {
	g := rng.New(seed).Split("toolkit")
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	emb, err := blueprint.Build(hwspec.Registry(), blueprint.DefaultDim())
	if err != nil {
		return err
	}
	buildS := since(start)

	pool := hwspec.TrainingPool(gpu)
	var priorTasks []workload.Task
	for _, model := range workload.Models {
		priorTasks = append(priorTasks, workload.MustTasks(model)...)
	}
	start = time.Now()
	if _, err := prior.Train(emb, pool, priorTasks, pcfg, g.Split("prior")); err != nil {
		return err
	}
	priorS := since(start)

	var metaTasks []workload.Task
	for _, ref := range []struct {
		model string
		l     int
	}{{workload.ResNet18, 5}, {workload.ResNet18, 7}, {workload.ResNet18, 14}, {workload.AlexNet, 11}} {
		t, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			return err
		}
		metaTasks = append(metaTasks, t)
	}
	const metaGPUs = 4
	metaPool := pool
	if len(metaPool) > metaGPUs {
		stride := len(metaPool) / metaGPUs
		metaPool = nil
		for i := 0; i < metaGPUs; i++ {
			metaPool = append(metaPool, pool[i*stride])
		}
	}
	start = time.Now()
	if _, err := acq.MetaTrain(emb, metaPool, metaTasks, mcfg, g.Split("meta")); err != nil {
		return err
	}
	metaS := since(start)
	runtime.ReadMemStats(&after)

	rd.layers["blueprint.build_s"] = metric{buildS, "s"}
	rd.layers["prior.train_s"] = metric{priorS, "s"}
	rd.layers["acq.meta_train_s"] = metric{metaS, "s"}
	rd.layers["core.toolkit_alloc_mb"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"}
	rd.layers["core.toolkit_gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	// The parts should account for the training the job waited for; the
	// ratio shows how closely.
	if waitMS > 0 {
		rd.layers["core.toolkit_parts_ratio"] = metric{(buildS + priorS + metaS) * 1000 / waitMS, "ratio"}
	}
	return nil
}
