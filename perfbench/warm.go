package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/server"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// setupRepeats is how many times a serve run sets up; setup_s is the
// median, which leaves out the first set-up's one-time costs.
const setupRepeats = 5

// sizes scales the workloads. sizesFor gives the benchmark's sizes; the
// package test uses smaller ones.
type sizes struct {
	warmGPUs    int // serve_warm: leading hwspec.Targets, tuned GPU-major
	warmTasks   int // serve_warm: distinct tasks per GPU
	warmBudget  int // serve_warm: measurements per job
	warmToolkit core.ToolkitConfig

	coldGPUs     int // serve_cold: never-seen GPUs per run
	coldBudget   int // serve_cold: measurements per job after training
	coldToolkits func() server.ToolkitProvider
	partsPrior   prior.TrainConfig // traced serve_cold: TrainToolkit parts
	partsMeta    acq.MetaConfig

	fleetTasks     int // fleet_churn: resnet-18 tasks per GPU (0: all)
	fleetBudget    int
	fleetEndpoints int
}

// warmToolkitConfig trains serve_warm's toolkits at a fraction of the
// default cost (fewer epochs and meta-training GPUs) with the default
// network shapes, so tuning jobs do the same work per step as with a
// default toolkit. Cold-start cost is serve_cold's subject.
var warmToolkitConfig = core.ToolkitConfig{
	MetaGPUs: 2,
	Prior:    prior.TrainConfig{Epochs: 40},
	Meta:     acq.MetaConfig{Epochs: 40},
}

func sizesFor(seconds float64) sizes {
	// Two tasks per second of --seconds keep a run near that length on
	// two cores (40 of the 48 distinct tasks at the benchmark's 20 s). Three
	// GPUs make a third of the jobs cold-tuned: with donors, warm-started
	// jobs are faster, so p50 falls inside the warm mode and the tail (10
	// samples from the top) inside the cold one.
	tasks := int(2*seconds + 0.5)
	if tasks < 11 {
		tasks = 11
	}
	return sizes{
		warmGPUs: 3, warmTasks: tasks, warmBudget: 96,
		warmToolkit: warmToolkitConfig,
		coldGPUs:    3, coldBudget: 32,
		coldToolkits: func() server.ToolkitProvider { return server.NewTrainingToolkits("") },
		fleetBudget:  64, fleetEndpoints: 200,
	}
}

// distinctTasks lists every task of every model, dropping tasks whose
// workload fingerprint repeats an earlier one: a repeat would be an
// exact cache hit, not a tuning job.
func distinctTasks() ([]workload.Task, error) {
	seen := map[string]bool{}
	var out []workload.Task
	for _, model := range workload.Models {
		tasks, err := workload.Tasks(model)
		if err != nil {
			return nil, err
		}
		for _, t := range tasks {
			sp, err := space.ForTask(t)
			if err != nil {
				return nil, err
			}
			if fp := cache.Fingerprint(t, sp); !seen[fp] {
				seen[fp] = true
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// spread picks n tasks evenly across all of them.
func spread(tasks []workload.Task, n int) []workload.Task {
	if n <= 0 || n >= len(tasks) {
		return tasks
	}
	out := make([]workload.Task, n)
	for i := range out {
		out[i] = tasks[i*len(tasks)/n]
	}
	return out
}

// tuneSeed seeds every job, toolkit and fleet round, so results and
// best_gflops_geomean are exactly the same in every run and any change
// in them is a change in the program. The workload seed varies what the
// program's results must not depend on: job order and endpoint churn.
const tuneSeed = 7

// repeatSetup runs setup setupRepeats times, closing all but the last
// daemon, and records each duration.
func repeatSetup(rd *runData, setup func(i int) (*daemon, error)) (*daemon, error) {
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = setup(i); err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, since(start))
	}
	return d, nil
}

// runServeWarm: cache-miss tuning jobs at a fixed budget, GPU-major, so
// every GPU after the first warm-starts from the same donors each run.
func runServeWarm(o *options, tr *tracing) (*runData, error) {
	sz := o.size
	gpus := hwspec.Targets[:sz.warmGPUs]
	all, err := distinctTasks()
	if err != nil {
		return nil, err
	}
	tasks := spread(all, sz.warmTasks)
	order := rng.New(o.seed).Split("serve_warm/order").Perm(len(tasks))
	seed := int64(tuneSeed)
	budget := tuner.Budget{MaxMeasurements: sz.warmBudget, Patience: 4, Epsilon: 0.01}

	// Toolkits are trained by the code under test, once per run, into a
	// fresh artifacts directory; set-up only loads them.
	artifacts := filepath.Join(o.dir, "artifacts")
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return nil, err
	}
	artifact := func(gpu string) string {
		return filepath.Join(artifacts, fmt.Sprintf("%s-seed%d.json", gpu, seed))
	}
	for _, gpu := range gpus {
		if _, err := os.Stat(artifact(gpu)); err == nil {
			continue // the traced run's untraced pass already trained it
		}
		tk, err := core.TrainToolkit(gpu, sz.warmToolkit, rng.New(seed).Split("toolkit"))
		if err != nil {
			return nil, err
		}
		if err := tk.Save(artifact(gpu)); err != nil {
			return nil, err
		}
	}

	rd := &runData{}
	run := 0
	if tr != nil {
		run = 1
	}
	var cachePath string
	d, err := repeatSetup(rd, func(i int) (*daemon, error) {
		stateDir := filepath.Join(o.dir, fmt.Sprintf("warm-%d-state-%d", run, i))
		cachePath = filepath.Join(o.dir, fmt.Sprintf("warm-%d-cache-%d.jsonl", run, i))
		tk := server.NewTrainingToolkits(artifacts)
		for _, gpu := range gpus {
			if _, err := tk.Toolkit(gpu, seed); err != nil {
				return nil, err
			}
		}
		return startDaemon(daemonConfig{stateDir: stateDir, cachePath: cachePath, gpus: gpus, toolkits: tk, tr: tr})
	})
	if err != nil {
		return nil, err
	}

	type jobRef struct {
		gpu  int
		task workload.Task
	}
	refs := make([]jobRef, 0, len(gpus)*len(tasks))
	for g := range gpus {
		for _, k := range order {
			refs = append(refs, jobRef{g, tasks[k]})
		}
	}
	mark := markAfterGC()
	ls := closedLoop(d.base, clients, func(i int, _ time.Duration) (server.JobSpec, bool) {
		if i >= len(refs) {
			return server.JobSpec{}, false
		}
		r := refs[i]
		return server.JobSpec{Model: r.task.Model, TaskIndex: r.task.Index, GPU: gpus[r.gpu],
			Seed: seed, Tenant: "bench", MaxMeasurements: sz.warmBudget}, true
	})
	rd.endRegion(mark, totalAlloc())
	rd.apply(ls)

	rd.problems = append(rd.problems, checkBooks(d.base, ls)...)
	warm, cached, err := serveLayers(rd, d, ls)
	if err != nil {
		return nil, err
	}
	// Every job misses the store (task fingerprints are distinct), and
	// only GPUs after the first have donors, so exactly their jobs must
	// warm-start.
	if want := len(refs) - len(tasks); warm != want || cached != 0 {
		rd.problems = append(rd.problems, fmt.Sprintf("%d jobs warm-started and %d served from the store, want %d and 0",
			warm, cached, want))
	}
	if err := d.close(); err != nil {
		return nil, err
	}

	// Parity: the first cold job and the first job on the last GPU must
	// be byte-identical to a one-shot core tune with the same toolkit,
	// seed, and (for the warm job) the same donors.
	ro, err := readOnlyCopy(cachePath, o.dir)
	if err != nil {
		return nil, err
	}
	for _, i := range []int{0, len(refs) - len(tasks)} {
		if i >= len(ls.runs) || ls.runs[i].index != i {
			continue
		}
		r := refs[i]
		want, err := oneShot(artifact(gpus[r.gpu]), r.task, gpus[:r.gpu+1], ro, budget, seed)
		if err != nil {
			return nil, err
		}
		if got := canonicalResult(ls.runs[i].result); !bytes.Equal(got, want) {
			rd.problems = append(rd.problems, tagged(ls.runs[i].id,
				"result differs from a one-shot core tune of %s on %s", r.task.Name(), gpus[r.gpu]))
		}
	}

	if tr != nil {
		var keys []storeKey
		for _, r := range refs {
			sp, err := space.ForTask(r.task)
			if err != nil {
				return nil, err
			}
			keys = append(keys, storeKey{cache.Fingerprint(r.task, sp), gpus[r.gpu]})
		}
		us, err := timeGets(ro, keys)
		if err != nil {
			return nil, err
		}
		rd.layers["cache.get_us"] = metric{us, "us"}
		kb, err := stepAllocKB(artifact(gpus[0]), tasks[order[0]], gpus[0], budget, seed)
		if err != nil {
			return nil, err
		}
		rd.layers["core.step_alloc_kb"] = metric{kb, "KB"}
	}
	return rd, nil
}

// readOnlyCopy copies a store file into dir and opens the copy
// read-only.
func readOnlyCopy(path, dir string) (*cache.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp := filepath.Join(dir, "readonly-"+filepath.Base(path))
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		return nil, err
	}
	return cache.OpenReadOnly(cp)
}

// canonicalResult re-encodes a result body so both sides of a parity
// comparison use one encoding.
func canonicalResult(body []byte) []byte {
	var res tuner.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil
	}
	out, _ := json.Marshal(&res) // a decoded Result always re-encodes
	return out
}

// oneShot tunes task on the last of gpus the way cmd/glimpse does, with
// the job's toolkit and seed. When earlier GPUs exist, their store
// entries for the task are the donors, exactly as the server saw them.
func oneShot(artifact string, task workload.Task, gpus []string, store *cache.Store,
	budget tuner.Budget, seed int64) ([]byte, error) {
	tk, err := core.LoadToolkit(artifact)
	if err != nil {
		return nil, err
	}
	sp, err := space.ForTask(task)
	if err != nil {
		return nil, err
	}
	gpu := gpus[len(gpus)-1]
	gl := tk.Tuner()
	if len(gpus) > 1 {
		fp := cache.Fingerprint(task, sp)
		donors := cache.NewMemory()
		for _, g := range gpus[:len(gpus)-1] {
			e, ok := store.Get(fp, g)
			if !ok {
				return nil, fmt.Errorf("parity: no store entry for %s on %s", task.Name(), g)
			}
			if _, err := donors.Put(e); err != nil {
				return nil, err
			}
		}
		gl.SetWarmStart(donors.WarmStart(fp, gpu, sp, 3))
		budget = cache.ShrinkBudget(budget, cache.WarmBudgetFrac)
	}
	m, err := measure.NewLocal(gpu)
	if err != nil {
		return nil, err
	}
	res, err := gl.Tune(task, sp, m, budget, rng.New(seed).Split("tune/"+task.Name()))
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// storeKey is one (fingerprint, device) key of a tuned-config store.
type storeKey struct{ fp, device string }

// timeGets replays Store.Get over keys and returns the mean
// microseconds per lookup.
func timeGets(s *cache.Store, keys []storeKey) (float64, error) {
	const rounds = 200
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if _, ok := s.Get(k.fp, k.device); !ok {
				return 0, fmt.Errorf("cache replay: no entry for %s on %s", k.fp, k.device)
			}
		}
	}
	return time.Since(start).Seconds() * 1e6 / float64(rounds*len(keys)), nil
}

// stepAllocKB drives a TuneSession directly and returns the mean bytes
// allocated per Step, in KB.
func stepAllocKB(artifact string, task workload.Task, gpu string, budget tuner.Budget, seed int64) (float64, error) {
	tk, err := core.LoadToolkit(artifact)
	if err != nil {
		return 0, err
	}
	sp, err := space.ForTask(task)
	if err != nil {
		return 0, err
	}
	m, err := measure.NewLocal(gpu)
	if err != nil {
		return 0, err
	}
	ts, err := tk.Tuner().NewTuneSession(task, sp, m, budget, rng.New(seed).Split("tune/"+task.Name()))
	if err != nil {
		return 0, err
	}
	var total uint64
	steps := 0
	for {
		before := totalAlloc()
		done, err := ts.Step()
		total += totalAlloc() - before
		if err != nil {
			return 0, err
		}
		steps++
		if done {
			break
		}
	}
	return float64(total) / 1024 / float64(steps), nil
}
