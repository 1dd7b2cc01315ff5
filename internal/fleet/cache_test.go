package fleet

import (
	"path/filepath"
	"sync"
	"testing"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func openCache(t *testing.T) *cache.Store {
	t.Helper()
	s, err := cache.Open(filepath.Join(t.TempDir(), "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestTuneModelCacheExactHit(t *testing.T) {
	store := openCache(t)
	cfg := Config{
		Model:    workload.ResNet18,
		Tasks:    subset(t, workload.ResNet18, 2, 17),
		Budget:   tuner.Budget{MaxMeasurements: 48},
		NewTuner: randomTunerFactory,
		Cache:    store,
	}
	m := measure.MustNewLocal(hwspec.TitanXp)

	cold, err := tuneOn(cfg, SchedulerConfig{}, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CachedTasks != 0 || cold.Measurements != 2*48 {
		t.Fatalf("cold run: cached %d measurements %d", cold.CachedTasks, cold.Measurements)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d entries after cold run, want 2", store.Len())
	}

	// Same model, same device: every task is an exact hit — zero
	// measurements, identical configs.
	hit, err := tuneOn(cfg, SchedulerConfig{}, m, 999)
	if err != nil {
		t.Fatal(err)
	}
	if hit.CachedTasks != 2 || hit.Measurements != 0 {
		t.Fatalf("hit run: cached %d measurements %d", hit.CachedTasks, hit.Measurements)
	}
	for i, tp := range hit.Tasks {
		if !tp.FromCache {
			t.Fatalf("task %s not served from cache", tp.TaskName)
		}
		if tp.ConfigIndex != cold.Tasks[i].ConfigIndex || tp.GFLOPS != cold.Tasks[i].GFLOPS {
			t.Fatalf("cached task %s diverged: %+v vs %+v", tp.TaskName, tp, cold.Tasks[i])
		}
	}
	if st := store.Stats(); st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 hits", st)
	}
}

// warmRandom is a random tuner that accepts warm-start payloads, recording
// what the fleet handed it.
type warmRandom struct {
	tuner.Random
	mu   *sync.Mutex
	seen *[]*cache.WarmStart
}

func (w *warmRandom) SetWarmStart(ws *cache.WarmStart) {
	w.mu.Lock()
	defer w.mu.Unlock()
	*w.seen = append(*w.seen, ws)
}

func TestTuneModelWarmStartsFromDonorDevice(t *testing.T) {
	store := openCache(t)
	tasks := subset(t, workload.ResNet18, 2, 17)
	base := Config{
		Model:    workload.ResNet18,
		Tasks:    tasks,
		Budget:   tuner.Budget{MaxMeasurements: 48},
		NewTuner: randomTunerFactory,
		Cache:    store,
	}
	// Donor pass on a neighboring SKU populates the store.
	if _, err := tuneOn(base, SchedulerConfig{}, measure.MustNewLocal("rtx-2080-ti"), 1); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []*cache.WarmStart
	cfg := base
	cfg.NewTuner = func(task workload.Task, gpu string) (tuner.Tuner, error) {
		return &warmRandom{Random: tuner.Random{BatchSize: 16}, mu: &mu, seen: &seen}, nil
	}
	plan, err := tuneOn(cfg, SchedulerConfig{}, measure.MustNewLocal(hwspec.TitanXp), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("%d warm starts handed out, want 2", len(seen))
	}
	for _, ws := range seen {
		if ws == nil || len(ws.Seeds) == 0 || ws.Donors[0] != "rtx-2080-ti" {
			t.Fatalf("bad warm start %+v", ws)
		}
	}
	// Warm-started sessions run under the shrunken budget: ceil(48×0.7)=34.
	want := 2 * 34
	if plan.Measurements != want {
		t.Fatalf("warm measurements %d want %d", plan.Measurements, want)
	}
	for _, tp := range plan.Tasks {
		if !tp.WarmStarted || tp.FromCache {
			t.Fatalf("task flags wrong: %+v", tp)
		}
	}
	// The warm pass wrote titan-xp bests back: 2 devices × 2 tasks stored.
	if store.Len() != 4 {
		t.Fatalf("store holds %d entries, want 4", store.Len())
	}
}

// An exact hit whose stored best lies outside the task's space (a stale or
// hand-edited store file) is not served: the session warm-starts from the
// donors like a miss, and its result replaces the stale entry.
func TestTuneTaskOutOfSpaceHitWarmStarts(t *testing.T) {
	store := openCache(t)
	tasks := subset(t, workload.ResNet18, 17)
	cfg := Config{
		Model:    workload.ResNet18,
		Tasks:    tasks,
		Budget:   tuner.Budget{MaxMeasurements: 48},
		NewTuner: randomTunerFactory,
		Cache:    store,
		WarmK:    3,
	}
	if _, err := tuneOn(cfg, SchedulerConfig{}, measure.MustNewLocal("rtx-2080-ti"), 1); err != nil {
		t.Fatal(err)
	}
	sp, err := space.ForTask(tasks[0])
	if err != nil {
		t.Fatal(err)
	}
	fp := cache.Fingerprint(tasks[0], sp)
	if _, err := store.Put(cache.Entry{Fingerprint: fp, Device: hwspec.TitanXp, BestConfig: sp.Size(), GFLOPS: 1}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []*cache.WarmStart
	cfg.NewTuner = func(task workload.Task, gpu string) (tuner.Tuner, error) {
		return &warmRandom{Random: tuner.Random{BatchSize: 16}, mu: &mu, seen: &seen}, nil
	}
	tp, err := TuneTask(&cfg, measure.MustNewLocal(hwspec.TitanXp), tasks[0], rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if tp.Failed || tp.FromCache || !tp.WarmStarted || len(seen) != 1 || seen[0] == nil {
		t.Fatalf("out-of-space hit: plan %+v, %d warm starts handed out", tp, len(seen))
	}
	if ce, ok := store.Get(fp, hwspec.TitanXp); !ok || ce.BestConfig != tp.ConfigIndex {
		t.Fatalf("stale entry not replaced: %+v", ce)
	}
}
