package cache_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// BenchmarkCacheExactHit prices the serving fast path: one Get against a
// populated store. Compare its ns/op against any tuning session's minutes
// — an exact hit replaces the whole session with zero measurements.
func BenchmarkCacheExactHit(b *testing.B) {
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		b.Fatal(err)
	}
	sp := space.MustForTask(task)
	fp := cache.Fingerprint(task, sp)
	store := cache.NewMemory()
	// A populated store: every registry device for this fingerprint, plus
	// synthetic fingerprints to give the index realistic occupancy.
	for _, spec := range hwspec.Registry() {
		emb, err := cache.EmbedDevice(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if _, err := store.Put(cache.Entry{
				Fingerprint: fmt.Sprintf("%s-%d", fp, i),
				Device:      spec.Name,
				Embedding:   emb,
				BestConfig:  int64(i),
				GFLOPS:      float64(1000 + i),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := store.Put(cache.Entry{
			Fingerprint: fp, Device: spec.Name, Embedding: emb,
			BestConfig: 11, GFLOPS: 900,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := store.Get(fp, hwspec.TitanXp); !ok {
			b.Fatal("exact hit missed")
		}
	}
}

// benchToolkit trains a (cheap, test-scale) Glimpse toolkit per device,
// shared across benchmark iterations.
var (
	benchTkMu  sync.Mutex
	benchTks   = map[string]*core.Toolkit{}
	benchTkErr error
)

func benchToolkit(b *testing.B, device string) *core.Toolkit {
	b.Helper()
	benchTkMu.Lock()
	defer benchTkMu.Unlock()
	if benchTkErr != nil {
		b.Fatal(benchTkErr)
	}
	if tk, ok := benchTks[device]; ok {
		return tk
	}
	var tasks []workload.Task
	for _, ref := range []struct {
		model string
		l     int
	}{
		{workload.ResNet18, 4}, {workload.ResNet18, 5}, {workload.ResNet18, 7},
		{workload.ResNet18, 8}, {workload.ResNet18, 9}, {workload.ResNet18, 10},
		{workload.AlexNet, 2}, {workload.AlexNet, 3}, {workload.VGG16, 8},
	} {
		task, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			benchTkErr = err
			b.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	pool := []string{"gtx-1080", "gtx-1080-ti", "rtx-2070", "rtx-2080",
		"rtx-2080-ti", "titan-rtx", "rtx-3070", "rtx-3080"}
	train := pool[:0:0]
	for _, gpu := range pool {
		if gpu != device {
			train = append(train, gpu)
		}
	}
	tk, err := core.TrainToolkit(device, core.ToolkitConfig{
		TrainGPUs:  train,
		PriorTasks: tasks,
		Prior: prior.TrainConfig{
			Dataset: prior.DatasetConfig{SamplesPerTask: 150, TopK: 16},
			Epochs:  200,
		},
		MetaGPUs: 2,
	}, rng.New(1234))
	if err != nil {
		benchTkErr = err
		b.Fatal(err)
	}
	benchTks[device] = tk
	return tk
}

// BenchmarkCacheWarmVsCold runs the cache's transfer scenario end to end
// and reports the headline economics (run with -benchtime 1x):
//
//   - donor SKUs tune each task with their own Glimpse toolkits and
//     publish their bests into a store;
//   - the target GPU tunes cold (no cache) under the full budget;
//   - the target tunes again warm-started from its 3 nearest donors, and
//     the benchmark records how many measurements the warm run needed to
//     match the cold run's final best.
//
// Metrics: meas_savings_% is 100% × (1 − warm-match/cold measurements)
// averaged over ALL tasks, with a warm run that never reaches the cold
// best contributing zero (the conservative accounting); matched_tasks
// counts how many warm runs reached the cold best at all. The benchmark
// fails when meas_savings_% is below 30, which fails `make bench-cache`
// and `make bench-diff-cache` (cmd/benchjson refuses a failed run).
func BenchmarkCacheWarmVsCold(b *testing.B) {
	tk := benchToolkit(b, hwspec.TitanXp)
	donors := []string{"rtx-3090", "rtx-2080-ti", "gtx-1080-ti"}
	taskRefs := []int{7, 9, 10}
	budget := tuner.Budget{MaxMeasurements: 128}

	for i := 0; i < b.N; i++ {
		store := cache.NewMemory()
		g := rng.New(77)
		for _, donor := range donors {
			dtk := benchToolkit(b, donor)
			m, err := measure.NewLocal(donor)
			if err != nil {
				b.Fatal(err)
			}
			for _, l := range taskRefs {
				task, err := workload.TaskByIndex(workload.ResNet18, l)
				if err != nil {
					b.Fatal(err)
				}
				sp := space.MustForTask(task)
				res, err := dtk.Tuner().Tune(task, sp, m, budget,
					g.Split(fmt.Sprintf("donor/%s/%s", donor, task.Name())))
				if err != nil {
					b.Fatal(err)
				}
				if ce, ok := cache.EntryFromResult(cache.Fingerprint(task, sp), donor, res, sp); ok {
					if _, err := store.Put(ce); err != nil {
						b.Fatal(err)
					}
				}
			}
		}

		m, err := measure.NewLocal(hwspec.TitanXp)
		if err != nil {
			b.Fatal(err)
		}
		var coldBestSum, warmBestSum, savingsSum float64
		matched := 0
		for _, l := range taskRefs {
			task, err := workload.TaskByIndex(workload.ResNet18, l)
			if err != nil {
				b.Fatal(err)
			}
			sp := space.MustForTask(task)

			cold := tk.Tuner()
			coldRes, err := cold.Tune(task, sp, m, budget, g.Split("cold/"+task.Name()))
			if err != nil {
				b.Fatal(err)
			}

			warm := tk.Tuner()
			ws := store.WarmStart(cache.Fingerprint(task, sp), hwspec.TitanXp, sp, 3)
			if ws == nil {
				b.Fatalf("no donors for %s", task.Name())
			}
			warm.SetWarmStart(ws)
			warmRes, err := warm.Tune(task, sp, m, budget, g.Split("warm/"+task.Name()))
			if err != nil {
				b.Fatal(err)
			}

			coldBestSum += coldRes.BestGFLOPS
			warmBestSum += warmRes.BestGFLOPS
			cross := 0
			for _, h := range warmRes.History {
				if h.BestGFLOPS >= coldRes.BestGFLOPS {
					cross = h.Measurements
					matched++
					savingsSum += 1 - float64(h.Measurements)/float64(coldRes.Measurements)
					break
				}
			}
			b.Logf("%s: cold %.0f@%d warm %.0f@%d (match@%d)", task.Name(),
				coldRes.BestGFLOPS, coldRes.Measurements, warmRes.BestGFLOPS, warmRes.Measurements, cross)
		}
		n := float64(len(taskRefs))
		b.ReportMetric(coldBestSum/n, "cold_best_gflops")
		b.ReportMetric(warmBestSum/n, "warm_best_gflops")
		b.ReportMetric(float64(matched), "matched_tasks")
		savings := 100 * savingsSum / n
		b.ReportMetric(savings, "meas_savings_%")
		if savings < 30 {
			b.Fatalf("meas_savings_%% = %.2f, below the 30%% gate", savings)
		}
	}
}
