package core

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/anneal"
	"github.com/neuralcompile/glimpse/internal/gp"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/sampler"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// TuneSession is one Glimpse tuning run held open as an explicit step
// loop: each Step measures one batch (the §3.1 prior batch first, then
// §3.2/§3.3 iterations), so a scheduler can interleave many sessions,
// checkpoint between steps, and preempt or resume a session without
// losing work.
//
// A TuneSession carries no durable state of its own. The resume
// discipline is deterministic replay: every randomized stage draws from
// the seeded RNG handed to NewTuneSession, and the only external input is
// the Measurer's results — so re-driving a fresh session whose Measurer
// serves the recorded measurements of a previous run (tlog.Replayer over
// the session's measurement log) reconstructs the exact in-memory state,
// including the RNG stream position, at which the previous run stopped.
// Glimpse.Tune, the fleet, and cmd/glimpse all drive this same loop, so a
// stepped, checkpointed, resumed session is byte-identical to a one-shot
// run for the same seed and config.
type TuneSession struct {
	gl   *Glimpse
	task workload.Task
	sp   *space.Space
	s    *tuner.Session
	m    measure.Measurer // the session's measurer, for per-batch trace binding
	g    *rng.RNG
	sc   telemetry.SpanContext // parent context for step spans (gl.Trace at open)
	step int                   // 1-based step counter, a span attribute only

	batch  int
	pool   int
	priorW float64

	hw     []float64
	dist   *prior.Dist
	scorer *prior.Scorer
	ens    *sampler.Ensemble

	xs           [][]float64
	ys           []float64
	visitedOrder []int64
	visited      map[int64]bool

	seeds []int64
	warmX [][]float64
	warmY []float64

	lanes  lanePool       // posterior workspaces, reused across steps
	anneal anneal.Scratch // annealer memo and chain RNGs, reused across steps

	totalBudget int
	stall       int
	lastBest    float64

	started bool
	done    bool
}

// NewTuneSession validates the artifacts and opens a session; no
// measurements run until the first Step.
func (gl *Glimpse) NewTuneSession(task workload.Task, sp *space.Space, m measure.Measurer,
	budget tuner.Budget, g *rng.RNG) (*TuneSession, error) {

	if gl.Emb == nil || gl.Prior == nil || gl.Acq == nil {
		return nil, fmt.Errorf("core: Glimpse missing offline artifacts (use Toolkit)")
	}
	batch := gl.BatchSize
	if batch <= 0 {
		batch = 16
	}
	pool := gl.PoolSize
	if pool <= 0 {
		pool = 4 * batch
	}
	tau := gl.Tau
	if tau <= 0 {
		tau = sampler.DefaultTau
	}
	priorW := gl.PriorWeight
	if priorW <= 0 {
		priorW = 0.15
	}

	s, err := tuner.NewSession(gl.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}

	hw := gl.Emb.Embed(gl.Target)
	dist, err := gl.Prior.Distributions(task, gl.Target)
	if err != nil {
		return nil, err
	}
	scorer := dist.Scorer(sp)
	ens, err := sampler.NewEnsemble(gl.Emb, hw, gl.EnsembleSize, tau, g.Split("ensemble"))
	if err != nil {
		return nil, err
	}
	ens.Workers = gl.Workers

	ts := &TuneSession{
		gl: gl, task: task, sp: sp, s: s, m: m, g: g, sc: gl.Trace,
		batch: batch, pool: pool, priorW: priorW,
		hw: hw, dist: dist, scorer: scorer, ens: ens,
		visited: map[int64]bool{},
	}
	// One free slot per scoring goroutine: at most that many workspaces
	// are ever in use at once.
	ts.lanes = lanePool{free: make(chan *posteriorLanes, parallel.Resolve(gl.Workers)), featureLen: sp.FeatureLen()}

	// Warm start: donor best-configs from neighbor SKUs bypass the
	// ensemble filter (they ran valid on real hardware nearby), and donor
	// samples pre-train the surrogate. Both are fixed inputs — no RNG —
	// so warm runs stay deterministic.
	if gl.Warm != nil {
		for _, idx := range gl.Warm.Seeds {
			if idx >= 0 && idx < sp.Size() {
				ts.seeds = append(ts.seeds, idx)
			}
		}
		ts.warmX = gl.Warm.Features
		// Donor rows carry ranking information, not target-scale truth: a
		// donor's best config need not be the target's. Discount them below
		// the target's own normalized max so the first real measurement that
		// beats a donor region outranks it, instead of the GP chasing a
		// neighbor's optimum at face value for the whole session.
		ts.warmY = make([]float64, len(gl.Warm.GFLOPS))
		for i, v := range gl.Warm.GFLOPS {
			ts.warmY[i] = warmDiscount * v
		}
	}

	ts.totalBudget = budget.MaxMeasurements
	if ts.totalBudget <= 0 {
		ts.totalBudget = 512 // progress proxy when only GPU time is bounded
	}
	return ts, nil
}

// selector is the §3.3 ensemble-vote batch filter.
func (ts *TuneSession) selector(sc telemetry.SpanContext, cands []int64, n int) []int64 {
	vote, _ := ts.gl.Tracer.StartSpan(sc, telemetry.StageEnsembleVote)
	vote.SetAttr("cands", len(cands))
	var kept []int64
	if ts.gl.DisableSampler {
		kept = sampler.Passthrough{}.Select(ts.task, ts.sp, cands, n, ts.g)
	} else {
		kept = ts.ens.Select(ts.task, ts.sp, cands, n, ts.g)
	}
	vote.SetAttr("kept", len(kept))
	vote.End()
	return kept
}

// record measures one batch and folds the results into the surrogate's
// training set.
func (ts *TuneSession) record(sc telemetry.SpanContext, idxs []int64) error {
	msp, msc := ts.gl.Tracer.StartSpan(sc, telemetry.StageMeasure)
	msp.SetAttr("batch", len(idxs))
	// Bind this measure span's identity to the measurer chain: a Remote
	// at the bottom stamps it onto the RPC wire, so measured's
	// rpc_measure spans parent under this exact batch in merged traces.
	measure.BindTrace(ts.m, msc)
	results, err := ts.s.MeasureBatch(idxs)
	if err != nil {
		msp.SetAttr("error", err.Error())
		msp.End()
		return err
	}
	valid := 0
	for _, r := range results {
		if r.Valid {
			valid++
		}
	}
	msp.SetAttr("valid", valid)
	msp.End()
	ts.s.RecordInitialBatch(results)
	for i, r := range results {
		ts.visited[idxs[i]] = true
		ts.visitedOrder = append(ts.visitedOrder, idxs[i])
		v := 0.0
		if r.Valid {
			v = r.GFLOPS
		}
		ts.xs = append(ts.xs, ts.sp.FeaturesAt(idxs[i]))
		ts.ys = append(ts.ys, v)
	}
	return nil
}

// stepInitial runs the §3.1 initial batch: prior-distribution samples
// (ensemble-filtered), led by any warm-start seeds.
func (ts *TuneSession) stepInitial(sc telemetry.SpanContext) error {
	psp, _ := ts.gl.Tracer.StartSpan(sc, telemetry.StagePriorSample)
	psp.SetAttr("want", 3*ts.batch)
	psp.SetAttr("warm_seeds", len(ts.seeds))
	var first []int64
	if ts.gl.DisablePrior {
		for i := 0; i < 3*ts.batch; i++ {
			first = append(first, ts.sp.RandomIndex(ts.g))
		}
	} else {
		first = ts.dist.Sample(ts.sp, 3*ts.batch, ts.g.Split("prior-sample"))
	}
	psp.SetAttr("sampled", len(first))
	psp.End()
	want := ts.s.Remaining(ts.batch)
	seeds := ts.seeds
	if len(seeds) > want {
		seeds = seeds[:want]
	}
	first = append(append([]int64(nil), seeds...), ts.selector(sc, first, want-len(seeds))...)
	if len(first) == 0 {
		ts.done = true
		return nil
	}
	return ts.record(sc, first)
}

// surrogate fits the step's GP: an exact GP on normalized measurements,
// pre-trained with discounted donor rows when warm-started. Donor rows
// retire once the target's own data outnumbers them 2:1 — past that point
// they only blur a surrogate the real measurements specify better, and the
// warm session's late-run search matches a cold one's. It also returns the
// best normalized target.
func (ts *TuneSession) surrogate(sc telemetry.SpanContext) (*gp.Regressor, float64, error) {
	if len(ts.xs) >= 2*len(ts.warmY) {
		ts.warmX, ts.warmY = nil, nil
	}
	ny := normalize(ts.ys)
	gpx := make([][]float64, 0, len(ts.warmX)+len(ts.xs))
	gpx = append(append(gpx, ts.warmX...), ts.xs...)
	gpy := make([]float64, 0, len(ts.warmY)+len(ny))
	gpy = append(append(gpy, ts.warmY...), ny...)
	gx, gy := capGPSet(gpx, gpy, 144)
	tsp, _ := ts.gl.Tracer.StartSpan(sc, telemetry.StageSurrogateTrain)
	tsp.SetAttr("rows", len(gx))
	sur, err := gp.FitWithGridSearch(gx, gy, 1e-3)
	tsp.End()
	if err != nil {
		return nil, 0, err
	}
	return sur, maxOf(gy), nil
}

// energy is the annealer's batch score: the surrogate UCB mean + κ·std
// plus the weighted prior log-probability, evaluated gp.Lanes indices per
// posterior call. It is safe for concurrent use.
func (ts *TuneSession) energy(sur *gp.Regressor, kappa float64) func(idx []int64, out []float64) {
	return func(idx []int64, out []float64) {
		pl := ts.lanes.get()
		for lo := 0; lo < len(idx); lo += gp.Lanes {
			batch := idx[lo:min(lo+gp.Lanes, len(idx))]
			mean, variance := pl.predict(sur, ts.sp, batch)
			for l, i := range batch {
				v := mean[l] + kappa*sqrtPos(variance[l])
				if !ts.gl.DisablePrior {
					v += ts.priorW * ts.scorer.LogProbIndex(i) / 10
				}
				out[lo+l] = v
			}
		}
		ts.lanes.put(pl)
	}
}

// stepIterate runs one §3.2/§3.3 loop iteration: surrogate fit, annealed
// exploration, acquisition scoring, ensemble-filtered measurement.
func (ts *TuneSession) stepIterate(sc telemetry.SpanContext) error {
	gl := ts.gl
	sp := ts.sp

	sur, best, err := ts.surrogate(sc)
	if err != nil {
		return err
	}

	// §3.2 — explorer: SA over a surrogate UCB plus the prior energy,
	// then neural acquisition scoring of the pool. The UCB's κ ramps
	// while progress stalls, steering the chains toward uncertain
	// regions instead of circling a local basin.
	energy := ts.energy(sur, 0.2+0.8*float64(ts.stall))
	annealCfg := anneal.DefaultConfig()
	annealCfg.Workers = gl.Workers
	annealCfg.Tracer = gl.Tracer // anneal.Run emits its own "anneal" span
	annealCfg.Trace = sc         // parented under this step
	annealCfg.InitialSeed = topMeasured(ts.xs, ts.ys, ts.visitedOrder, 3)
	top, err := ts.anneal.Run(anneal.Problem{
		Size:     sp.Size(),
		Score:    energy,
		Neighbor: sp.Neighbor,
	}, annealCfg, ts.pool, ts.g)
	if err != nil {
		return err
	}

	progress := float64(ts.s.Snapshot().Measurements) / float64(ts.totalBudget)
	var fresh []int64
	for _, r := range top {
		if !ts.visited[r.Index] {
			fresh = append(fresh, r.Index)
		}
	}
	if len(fresh) == 0 {
		ts.done = true
		return nil
	}
	// §3.2 scoring, two pooled passes: surrogate posteriors, gp.Lanes
	// candidates per call (GP predict dominates), then the neural
	// acquisition batch. Both fill index-ordered slots, so output is
	// worker-count invariant.
	ssp, _ := gl.Tracer.StartSpan(sc, telemetry.StageSurrogateScore)
	ssp.SetAttr("cands", len(fresh))
	stats := make([]acq.Stats, len(fresh))
	parallel.For(gl.Workers, (len(fresh)+gp.Lanes-1)/gp.Lanes, func(gi int) {
		lo := gi * gp.Lanes
		batch := fresh[lo:min(lo+gp.Lanes, len(fresh))]
		pl := ts.lanes.get()
		mean, variance := pl.predict(sur, sp, batch)
		for l, i := range batch {
			stats[lo+l] = acq.Stats{
				Mean:         mean[l],
				Std:          sqrtPos(variance[l]),
				Best:         best,
				Progress:     progress,
				PriorLogProb: ts.scorer.LogProbIndex(i),
			}
		}
		ts.lanes.put(pl)
	})
	ssp.End()
	asp, _ := gl.Tracer.StartSpan(sc, telemetry.StageAcquisition)
	asp.SetAttr("cands", len(stats))
	var scores []float64
	if gl.DisableAcq {
		scores = parallel.Map(gl.Workers, len(stats), func(i int) float64 {
			return acq.EI(stats[i].Mean, stats[i].Std, stats[i].Best)
		})
	} else {
		scores = gl.Acq.ScoreBatch(stats, ts.hw, gl.Workers)
	}
	asp.End()
	cands := make([]scoredCand, len(fresh))
	for i := range fresh {
		cands[i] = scoredCand{fresh[i], scores[i]}
	}
	sortScoredDesc(cands)
	ordered := make([]int64, len(cands))
	for i, c := range cands {
		ordered[i] = c.idx
	}

	// §3.3 — ensemble vote filters the measurement batch.
	n := ts.s.Remaining(ts.batch)
	explore := (n / 8) * (1 + ts.stall)
	if explore < 1 && n > 2 {
		explore = 1
	}
	if explore > n/2 {
		explore = n / 2
	}
	idxs := ts.selector(sc, ordered, n-explore)
	// Hardware-Aware Exploration keeps a slice of each batch for fresh
	// samples so the search cannot collapse onto one mode: prior-guided
	// draws normally, widened with uniform draws while progress stalls.
	if explore > 0 {
		freshDraw := ts.dist.Sample(sp, 8*explore, ts.g)
		for i := 0; i < 4*explore*ts.stall; i++ {
			freshDraw = append(freshDraw, sp.RandomIndex(ts.g))
		}
		var unseen []int64
		for _, idx := range freshDraw {
			if !ts.visited[idx] {
				unseen = append(unseen, idx)
			}
		}
		idxs = append(idxs, ts.selector(sc, unseen, explore)...)
	}
	if len(idxs) == 0 {
		ts.done = true
		return nil
	}
	if err := ts.record(sc, idxs); err != nil {
		return err
	}
	if cur := ts.s.Snapshot().BestGFLOPS; cur > ts.lastBest*1.005 {
		ts.stall = 0
		ts.lastBest = cur
	} else if ts.stall < 6 {
		ts.stall++
	}
	return nil
}

// Step advances the session by one measurement batch and reports whether
// the session has finished. Calling Step on a finished session is a
// harmless no-op returning done=true.
func (ts *TuneSession) Step() (done bool, err error) {
	if ts.done {
		return true, nil
	}
	if ts.started && ts.s.Done() {
		ts.done = true
		return true, nil
	}
	ts.step++
	span, sc := ts.gl.Tracer.StartSpan(ts.sc, telemetry.StageStep)
	span.SetAttr("step", ts.step)
	defer span.End()
	if !ts.started {
		ts.started = true
		if err := ts.stepInitial(sc); err != nil {
			return false, err
		}
		return ts.done, nil
	}
	if err := ts.stepIterate(sc); err != nil {
		return false, err
	}
	return ts.done, nil
}

// Done reports whether the session has finished (budget exhausted,
// converged, or search dried up).
func (ts *TuneSession) Done() bool { return ts.done || (ts.started && ts.s.Done()) }

// Snapshot returns the session's progress so far without ending it.
func (ts *TuneSession) Snapshot() tuner.Result { return ts.s.Snapshot() }

// Result finalizes and returns the session result. The session may not be
// stepped afterwards.
func (ts *TuneSession) Result() *tuner.Result {
	ts.done = true
	return ts.s.Finish()
}

// posteriorLanes is one goroutine's workspace for GP posteriors over
// configuration indices, gp.Lanes at a time.
type posteriorLanes struct {
	q              [gp.Lanes][]float64
	mean, variance [gp.Lanes]float64
	gp             gp.Scratch
}

// lanePool recycles one session's posteriorLanes between the goroutines
// of its scoring passes, so steady-state scoring allocates nothing. Unlike
// a sync.Pool it holds nothing past the session's life.
type lanePool struct {
	free       chan *posteriorLanes
	featureLen int
}

func (lp *lanePool) get() *posteriorLanes {
	select {
	case pl := <-lp.free:
		return pl
	default:
	}
	pl := &posteriorLanes{}
	for l := range pl.q {
		pl.q[l] = make([]float64, 0, lp.featureLen)
	}
	return pl
}

func (lp *lanePool) put(pl *posteriorLanes) {
	select {
	case lp.free <- pl:
	default:
	}
}

// predict returns the posterior mean and variance at each of the
// 1..gp.Lanes indices, in pl's storage.
func (pl *posteriorLanes) predict(sur *gp.Regressor, sp *space.Space, idx []int64) (mean, variance []float64) {
	q := pl.q[:len(idx)]
	for l, i := range idx {
		q[l] = sp.FeaturesInto(i, q[l])
	}
	n := len(idx)
	sur.PredictLanes(q, pl.mean[:n], pl.variance[:n], &pl.gp)
	return pl.mean[:n], pl.variance[:n]
}
