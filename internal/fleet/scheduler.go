package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// SchedulerConfig tunes the sharded fleet scheduler. The zero value
// selects the defaults documented per field; sharding, stealing and
// speculation are orthogonal switches so tests (and the benchmark
// baseline) can disable them independently.
type SchedulerConfig struct {
	// Shards is the number of device groups the target list is split
	// into by Blueprint affinity. <= 0 means one shard per target.
	Shards int
	// Steal lets a shard that drains its queue take tasks from the
	// longest remaining queue, and lets a dispatcher borrow idle
	// endpoints from other shards when its own are busy or tripped.
	Steal bool
	// Speculate re-issues a straggling chunk on a second endpoint and
	// takes whichever result lands first.
	Speculate bool
	// SpeculateAfter is the straggler threshold. 0 adapts it to 4x the
	// endpoint fleet's observed mean chunk wall time.
	SpeculateAfter time.Duration
	// MaxChunk caps the configs one chunk of a batch takes (default 16).
	// A chunk otherwise takes an even share of the batch's uncut configs
	// over the endpoints idle when it is leased.
	MaxChunk int
	// SessionsPerShard is the number of concurrent tuning sessions each
	// shard runs (default 4).
	SessionsPerShard int
	// LeaseTimeout aborts a batch when no endpoint could be leased and
	// nothing was in flight for this long (default 2s).
	LeaseTimeout time.Duration
	// Reliable is the per-endpoint fault policy template; every dialed
	// connection is wrapped in a measure.Reliable built from it.
	Reliable measure.ReliableConfig
}

func (c *SchedulerConfig) resolve() {
	if c.MaxChunk <= 0 {
		c.MaxChunk = 16
	}
	if c.SessionsPerShard <= 0 {
		c.SessionsPerShard = 4
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Second
	}
}

// SchedulerStats counts what the resilience machinery actually did during
// a run. Counters are cumulative across Run calls.
type SchedulerStats struct {
	TasksDone       int // tuning sessions completed (incl. failed plans)
	TasksStolen     int // tasks a runner took from another shard's queue
	Chunks          int // measurement chunks dispatched
	ChunkRetries    int // chunks re-queued after an endpoint failed them
	EndpointSteals  int // leases borrowed from another shard's endpoints
	Speculations    int // straggler twin attempts issued
	SpeculativeWins int // chunks whose twin finished first
}

// Scheduler is the fleet orchestrator: it drives tuning sessions for many
// (gpu, task) units over a pool of measurement endpoints. Targets are
// sharded by Blueprint affinity, idle shards steal queued tasks,
// dispatchers spread each batch over the idle endpoints in chunks, and
// stragglers are speculatively re-issued. A single machine tuning its
// own GPUs is the pool of one in-process endpoint per target.
//
// Result determinism: tuning randomness is split per (gpu, task) from the
// run's root RNG and simulated devices are pure functions of the measured
// configuration, so best-found plans are byte-identical to tuning each
// target's tasks one after another on a plain in-process simulator with
// the same seed (the reference loop the fleet tests pin against),
// regardless of shard count, session count, steal order, or which
// endpoint served which chunk.
type Scheduler struct {
	sc    SchedulerConfig
	slots []*slot

	mu     sync.Mutex
	queues [][]unit // per-shard pending units
	stats  SchedulerStats

	notifyMu sync.Mutex
	waitCh   chan struct{} // closed+replaced on every endpoint release
}

// unit is one tuning session: a (gpu, task) pair bound to its home shard.
type unit struct {
	gpuIndex int // position in the Run targets slice
	gpu      string
	taskPos  int // position in cfg.Tasks
	task     workload.Task
	shard    int
}

// NewScheduler builds a scheduler over the endpoint pool. The pool is
// shared across Run calls; per-run state (queues, shard assignment) is
// rebuilt each Run.
func NewScheduler(sc SchedulerConfig, endpoints []Endpoint) (*Scheduler, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("fleet: scheduler needs at least one endpoint")
	}
	sc.resolve()
	s := &Scheduler{sc: sc, waitCh: make(chan struct{})}
	for i, ep := range endpoints {
		if ep.Dial == nil {
			return nil, fmt.Errorf("fleet: endpoint %d (%s) has no Dial", i, ep.Name)
		}
		if ep.Name == "" {
			ep.Name = fmt.Sprintf("endpoint-%d", i)
		}
		s.slots = append(s.slots, newSlot(ep))
	}
	return s, nil
}

// Stats returns a snapshot of the resilience counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// releaseWait snapshots the channel the next endpoint release will close.
func (s *Scheduler) releaseWait() <-chan struct{} {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	return s.waitCh
}

// notifyRelease wakes every dispatcher blocked on a full endpoint pool.
func (s *Scheduler) notifyRelease() {
	s.notifyMu.Lock()
	close(s.waitCh)
	s.waitCh = make(chan struct{})
	s.notifyMu.Unlock()
}

// hosted reports whether any endpoint in the pool can measure gpu.
func (s *Scheduler) hosted(gpu string) bool {
	for _, sl := range s.slots {
		if sl.ep.HostsGPU(gpu) {
			return true
		}
	}
	return false
}

// partitionTargets splits the target GPUs into n contiguous groups of
// neighbours in Blueprint embedding space, so each shard tunes
// architecturally similar devices (their sessions stress similar schedule
// regions, and a borrowed endpoint is likelier to host the sibling GPU).
// Falls back to a name-sorted split when the embedding cannot be built,
// and skips it when every shard holds one target: there is then nothing
// to group.
func partitionTargets(targets []string, n int) [][]string {
	if n <= 0 || n > len(targets) {
		n = len(targets)
	}
	type keyed struct {
		name string
		key  float64
	}
	ks := make([]keyed, len(targets))
	for i, t := range targets {
		ks[i] = keyed{name: t}
	}
	if n < len(targets) {
		if emb, err := blueprint.Build(hwspec.Registry(), blueprint.DefaultDim()); err == nil {
			for i := range ks {
				if spec, err := hwspec.ByName(ks[i].name); err == nil {
					ks[i].key = emb.Embed(spec)[0]
				}
			}
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key { //glint:ignore floateq -- total-order tiebreak for sorting, not a tolerance check
			return ks[i].key < ks[j].key
		}
		return ks[i].name < ks[j].name
	})
	shards := make([][]string, n)
	for i, k := range ks {
		// Balanced contiguous split: shard j gets positions
		// [j*len/n, (j+1)*len/n).
		j := i * n / len(ks)
		shards[j] = append(shards[j], k.name)
	}
	return shards
}

// assignEndpoints gives each endpoint a home shard: the candidate shard
// (one whose targets it hosts) with the fewest endpoints so far, ties
// broken by shard order. An endpoint hosting no shard target stays
// homeless (-1) and is only used via stealing.
func (s *Scheduler) assignEndpoints(shards [][]string) {
	counts := make([]int, len(shards))
	for _, sl := range s.slots {
		sl.home = -1
		best := -1
		for j, group := range shards {
			hosts := false
			for _, gpu := range group {
				if sl.ep.HostsGPU(gpu) {
					hosts = true
					break
				}
			}
			if hosts && (best < 0 || counts[j] < counts[best]) {
				best = j
			}
		}
		if best >= 0 {
			sl.home = best
			counts[best]++
		}
	}
}

// popUnit takes the next unit for a runner of the given shard: the head
// of its own queue, else (with stealing enabled) the tail of the longest
// other queue.
func (s *Scheduler) popUnit(shard int, tracer *telemetry.Tracer) (unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[shard]; len(q) > 0 {
		u := q[0]
		s.queues[shard] = q[1:]
		return u, true
	}
	if !s.sc.Steal {
		return unit{}, false
	}
	victim := -1
	for j, q := range s.queues {
		if j == shard || len(q) == 0 {
			continue
		}
		if victim < 0 || len(q) > len(s.queues[victim]) {
			victim = j
		}
	}
	if victim < 0 {
		return unit{}, false
	}
	q := s.queues[victim]
	u := q[len(q)-1] // steal from the tail: the victim works the head
	s.queues[victim] = q[:len(q)-1]
	s.stats.TasksStolen++
	tracer.Event(telemetry.StageSteal, map[string]any{
		"event": "task_steal", "thief_shard": shard, "victim_shard": victim,
		"gpu": u.gpu, "task": u.task.Name(),
	})
	return u, true
}

// Run tunes the model on every target GPU over the endpoint pool and
// returns the plans in target order.
//
// Per-task failures (device crash, exhausted retries, no valid
// configuration, codegen errors) do not abort the run: the failed task is
// recorded in its plan with Failed set and tuning of the other tasks
// continues, so hours of completed measurements survive one dead board
// and one GPU's failures never reach another GPU's plan. Only
// configuration errors (no NewTuner, an unknown model, a target no
// endpoint hosts) and checkpoint or cache I/O failures return an error.
func (s *Scheduler) Run(cfg Config, targets []string, g *rng.RNG) ([]*Plan, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("fleet: scheduler run needs at least one target")
	}
	devRNG := make([]*rng.RNG, len(targets))
	for i, gpu := range targets {
		if !s.hosted(gpu) {
			return nil, fmt.Errorf("fleet: no endpoint hosts %s", gpu)
		}
		devRNG[i] = g.Split("device/" + gpu)
	}
	shards := partitionTargets(targets, s.sc.Shards)
	s.assignEndpoints(shards)

	gpuIndex := make(map[string]int, len(targets))
	for i, t := range targets {
		gpuIndex[t] = i
	}
	s.mu.Lock()
	s.queues = make([][]unit, len(shards))
	total := 0
	for j, group := range shards {
		for _, gpu := range group {
			for pos, task := range cfg.Tasks {
				s.queues[j] = append(s.queues[j], unit{
					gpuIndex: gpuIndex[gpu], gpu: gpu, taskPos: pos, task: task, shard: j,
				})
				total++
			}
		}
	}
	s.mu.Unlock()

	type cell struct {
		tp  TaskPlan
		err error
	}
	results := make([][]cell, len(targets))
	for i := range results {
		results[i] = make([]cell, len(cfg.Tasks))
	}

	var wg sync.WaitGroup
	for j := range shards {
		runners := s.sc.SessionsPerShard
		if runners > total {
			runners = total
		}
		ssp, _ := cfg.Tracer.StartSpan(cfg.Trace, telemetry.StageShard)
		ssp.SetAttr("shard", j)
		ssp.SetAttr("targets", fmt.Sprintf("%v", shards[j]))
		var swg sync.WaitGroup
		for r := 0; r < runners; r++ {
			wg.Add(1)
			swg.Add(1)
			go func(shard int) {
				defer wg.Done()
				defer swg.Done()
				for {
					u, ok := s.popUnit(shard, cfg.Tracer)
					if !ok {
						return
					}
					d := s.dispatcher(u, cfg.Tracer)
					tp, err := TuneTask(&cfg, d, u.task, devRNG[u.gpuIndex].Split("fleet/"+u.task.Name()))
					results[u.gpuIndex][u.taskPos] = cell{tp: tp, err: err}
					s.mu.Lock()
					s.stats.TasksDone++
					s.mu.Unlock()
				}
			}(j)
		}
		// The span-ender must be joined by the outer wg: without it Run can
		// return (and the caller flush the tracer) before swg.Wait() wakes,
		// losing the shard span's End record from the trace.
		wg.Add(1)
		go func(sp telemetry.Span, swg *sync.WaitGroup) {
			defer wg.Done()
			swg.Wait()
			sp.End()
		}(ssp, &swg)
	}
	wg.Wait()

	plans := make([]*Plan, len(targets))
	for i := range targets {
		tps := make([]TaskPlan, 0, len(cfg.Tasks))
		for pos := range cfg.Tasks {
			c := results[i][pos]
			if c.err != nil {
				return nil, c.err
			}
			tps = append(tps, c.tp)
		}
		plans[i] = assemblePlan(cfg.Model, targets[i], cfg.Tasks, tps)
	}
	return plans, nil
}
