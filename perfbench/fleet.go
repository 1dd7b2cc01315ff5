package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/fleet"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// fleetScenario is the fleet benchmark's churn: every endpoint serves a
// measurement in 500µs, and a seeded 10% of them flap — a few batches
// up, then 160ms down, repeating.
func fleetScenario(n int, seed int64) faults.Scenario {
	sc := faults.Healthy(n, 500*time.Microsecond)
	sc.Name = "bench-flap"
	for _, i := range rng.New(seed).Split("fleet_churn/flap").Perm(n)[:n/10] {
		sc.Configs[i].Phases = []faults.Phase{
			{Calls: 1 + i%3},
			{For: 160 * time.Millisecond, Down: true},
		}
	}
	return sc
}

// endpointCounts counts the calls the scheduler makes on endpoints and
// how many of them failed.
type endpointCounts struct {
	calls, failed atomic.Int64
}

// countingMeasurer wraps an endpoint's measurer to count its calls,
// keeping the context path the scheduler's cancellation relies on.
type countingMeasurer struct {
	inner measure.Measurer
	c     *endpointCounts
}

func (m countingMeasurer) DeviceName() string { return m.inner.DeviceName() }

func (m countingMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	return m.MeasureBatchContext(context.Background(), task, sp, idxs)
}

func (m countingMeasurer) MeasureBatchContext(ctx context.Context, task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	m.c.calls.Add(1)
	var res []gpusim.Result
	var err error
	if cm, ok := m.inner.(measure.ContextMeasurer); ok {
		res, err = cm.MeasureBatchContext(ctx, task, sp, idxs)
	} else {
		res, err = m.inner.MeasureBatch(task, sp, idxs)
	}
	if err != nil {
		m.c.failed.Add(1)
	}
	return res, err
}

func fleetEndpoints(n int, seed int64, counts *endpointCounts) []fleet.Endpoint {
	sc := fleetScenario(n, seed)
	eps := make([]fleet.Endpoint, n)
	for i := range eps {
		i := i
		eps[i] = fleet.Endpoint{
			Name: fmt.Sprintf("ep-%03d", i),
			Dial: func(gpu string) (measure.Measurer, error) {
				local, err := measure.NewLocal(gpu)
				if err != nil {
					return nil, err
				}
				return countingMeasurer{inner: sc.Wrap(i, local), c: counts}, nil
			},
		}
	}
	return eps
}

// timedTuner times each fleet unit: latency is the unit's whole tuning
// session, ttfp the time to its first measured batch.
type timedTuner struct {
	inner tuner.Tuner
	mu    *sync.Mutex
	out   *[]sample
}

func (t timedTuner) Name() string { return t.inner.Name() }

func (t timedTuner) Tune(task workload.Task, sp *space.Space, m measure.Measurer, b tuner.Budget, g *rng.RNG) (*tuner.Result, error) {
	fm := &firstMeasure{inner: m, start: time.Now()}
	res, err := t.inner.Tune(task, sp, fm, b, g)
	if err == nil {
		t.mu.Lock()
		*t.out = append(*t.out, sample{latency: time.Since(fm.start), ttfp: fm.first})
		t.mu.Unlock()
	}
	return res, err
}

// firstMeasure records when the first batch comes back.
type firstMeasure struct {
	inner measure.Measurer
	start time.Time
	first time.Duration
}

func (f *firstMeasure) DeviceName() string { return f.inner.DeviceName() }

func (f *firstMeasure) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	res, err := f.inner.MeasureBatch(task, sp, idxs)
	if f.first == 0 {
		f.first = time.Since(f.start)
	}
	return res, err
}

// runFleetChurn: rounds of fleet.Scheduler.Run over every resnet-18 task
// × hwspec.Targets with the random tuner, on churning endpoints, each
// round with fresh endpoints and a fresh checkpoint file.
func runFleetChurn(o *options, tr *tracing) (*runData, error) {
	sz := o.size
	tasks, err := workload.Tasks(workload.ResNet18)
	if err != nil {
		return nil, err
	}
	if sz.fleetTasks > 0 && sz.fleetTasks < len(tasks) {
		tasks = tasks[:sz.fleetTasks]
	}
	units := len(tasks) * len(hwspec.Targets)
	sched := fleet.SchedulerConfig{
		Shards: 4, SessionsPerShard: sessions, Steal: true, Speculate: true,
		Reliable: measure.ReliableConfig{MaxAttempts: 1, BreakerThreshold: 1,
			BreakerCooldown: 20 * time.Millisecond, Seed: 1},
	}
	var tracer *telemetry.Tracer
	pass := 0
	if tr != nil {
		tracer, pass = tr.fleet, 1
	}

	rd := &runData{}
	var (
		mu      sync.Mutex
		samples []sample
		counts  endpointCounts
		stats   fleet.SchedulerStats
		first   []byte
		// firstLat and latencyBits track fleet.Plan.LatencyMS separately:
		// assembleLatency sums its per-shape minima in map order, so the
		// total can differ in its last bits between identical runs.
		firstLat    []float64
		latencyBits int
		dg          digester
		allPlan     [][]*fleet.Plan
	)
	deadline := time.Duration(o.seconds * float64(time.Second))
	var mark memMark
	var alloc uint64
	for round := 0; rd.timed < deadline || round < 2; round++ {
		start := time.Now()
		s, err := fleet.NewScheduler(sched, fleetEndpoints(sz.fleetEndpoints, o.seed, &counts))
		if err != nil {
			return nil, err
		}
		ckptPath := filepath.Join(o.dir, fmt.Sprintf("fleet-%d-%d.ckpt", pass, round))
		ckpt, err := fleet.OpenCheckpoint(ckptPath)
		if err != nil {
			return nil, err
		}
		cfg := fleet.Config{
			Model:  workload.ResNet18,
			Tasks:  tasks,
			Budget: tuner.Budget{MaxMeasurements: sz.fleetBudget},
			NewTuner: func(workload.Task, string) (tuner.Tuner, error) {
				return timedTuner{inner: tuner.Random{BatchSize: 16}, mu: &mu, out: &samples}, nil
			},
			Checkpoint: ckpt,
			Tracer:     tracer,
			Trace:      telemetry.SpanContext{TraceID: fmt.Sprintf("round-%d", round)},
		}
		rd.setups = append(rd.setups, since(start))
		if round == 0 {
			mark = markAfterGC()
		}

		before := totalAlloc()
		t0 := time.Now()
		plans, err := s.Run(cfg, hwspec.Targets, rng.New(tuneSeed))
		took := time.Since(t0)
		rd.timed += took
		alloc += totalAlloc() - before
		if err != nil {
			return nil, err
		}
		if err := ckpt.Close(); err != nil {
			return nil, err
		}
		allPlan = append(allPlan, plans)
		rd.attempted += units
		st := s.Stats()
		stats.Chunks += st.Chunks
		stats.ChunkRetries += st.ChunkRetries
		stats.TasksStolen += st.TasksStolen
		stats.EndpointSteals += st.EndpointSteals
		stats.Speculations += st.Speculations
		stats.SpeculativeWins += st.SpeculativeWins

		// Plans must be complete, checkpointed, and repeat exactly.
		done := 0
		for _, p := range plans {
			done += len(p.Tasks) - p.FailedTasks
			if !p.Complete() {
				rd.problems = append(rd.problems, tagged(p.GPU, "round %d plan has %d failed tasks", round, p.FailedTasks))
			}
		}
		rd.failed += units - done
		rd.rates = append(rd.rates, float64(done)/took.Seconds())
		b, lat, err := planKey(plans)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstLat = b, lat
			dg.add(b)
			for _, p := range plans {
				for _, tp := range p.Tasks {
					rd.gflops = append(rd.gflops, tp.GFLOPS)
				}
			}
		} else if !bytes.Equal(b, first) {
			rd.problems = append(rd.problems, fmt.Sprintf("round %d plans differ from round 0", round))
		} else {
			for i := range lat {
				if math.Abs(lat[i]-firstLat[i]) > 1e-9*math.Abs(firstLat[i]) {
					rd.problems = append(rd.problems, fmt.Sprintf("round %d %s latency %v, round 0 %v",
						round, plans[i].GPU, lat[i], firstLat[i]))
				} else if math.Float64bits(lat[i]) != math.Float64bits(firstLat[i]) {
					latencyBits++
				}
			}
		}
		if n, err := checkpointLen(ckptPath); err != nil {
			return nil, err
		} else if n != units {
			rd.problems = append(rd.problems, fmt.Sprintf("round %d checkpoint holds %d of %d tasks", round, n, units))
		}
		if err := os.Remove(ckptPath); err != nil {
			return nil, err
		}
	}
	if latencyBits > 0 {
		rd.notes = append(rd.notes, fmt.Sprintf("%d plan latency_ms values differed from round 0 in their last bits "+
			"(fleet.assembleLatency sums in map order)", latencyBits))
	}
	rd.endRegion(mark, mark.totalAlloc+alloc)
	rd.samples = samples
	rd.digest = dg.String()
	runtime.KeepAlive(allPlan) // the plans are the run's output: retained until measured

	n := float64(len(samples))
	share := 0.0
	if stats.Speculations > 0 {
		share = float64(stats.SpeculativeWins) / float64(stats.Speculations)
	}
	calls := float64(counts.calls.Load())
	failedShare := 0.0
	if calls > 0 {
		failedShare = float64(counts.failed.Load()) / calls
	}
	rd.layers = map[string]metric{
		"fleet.chunks":              {float64(stats.Chunks) / n, "1/task"},
		"fleet.chunk_retries":       {float64(stats.ChunkRetries) / n, "1/task"},
		"fleet.tasks_stolen":        {float64(stats.TasksStolen) / n, "1/task"},
		"fleet.endpoint_steals":     {float64(stats.EndpointSteals) / n, "1/task"},
		"fleet.speculations":        {float64(stats.Speculations) / n, "1/task"},
		"fleet.spec_win_share":      {share, "share"},
		"measure.calls_per_task":    {calls / n, "1/task"},
		"measure.failed_call_share": {failedShare, "share"},
	}
	return rd, nil
}

// planKey encodes a round's plans for exact comparison, with each plan's
// LatencyMS returned separately: it is the one field whose summation
// order is not fixed.
func planKey(plans []*fleet.Plan) ([]byte, []float64, error) {
	lat := make([]float64, len(plans))
	cp := make([]fleet.Plan, len(plans))
	for i, p := range plans {
		lat[i] = p.LatencyMS
		cp[i] = *p
		cp[i].LatencyMS = 0
	}
	b, err := json.Marshal(cp)
	return b, lat, err
}

// checkpointLen reopens a round's checkpoint and counts its tasks.
func checkpointLen(path string) (int, error) {
	c, err := fleet.OpenCheckpoint(path)
	if err != nil {
		return 0, err
	}
	n := c.Len()
	return n, c.Close()
}
