// Package core implements Glimpse, the paper's contribution: a Bayesian-
// optimization neural compiler that embeds the target hardware's datasheet
// specification (the Blueprint) into every stage of the search —
//
//	§3.1 prior distributions generated by the hypernetwork H seed the
//	     search near promising regions of an unseen GPU's space;
//	§3.2 a meta-learned neural acquisition function, conditioned on the
//	     Blueprint, balances exploration and exploitation;
//	§3.3 an ensemble of Blueprint-derived threshold predictors votes to
//	     reject invalid configurations before they burn GPU time.
//
// Glimpse implements the same tuner.Tuner interface as the baselines.
package core

import (
	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Glimpse is the hardware-aware tuner. Build one per target GPU via
// Toolkit.Tuner (offline artifacts are shared across tasks and targets).
type Glimpse struct {
	Emb    *blueprint.Embedding
	Prior  *prior.Model
	Acq    *acq.Neural
	Target hwspec.Spec

	BatchSize int     // measurements per step (default 16)
	Tau       float64 // rejection vote threshold (default 1/3)
	// Workers bounds the goroutines for the annealer, candidate scoring,
	// and the ensemble vote; <= 0 uses the process-wide default (see
	// internal/parallel). Results are identical for any worker count.
	Workers int
	// DisablePrior / DisableAcq / DisableSampler support the ablation
	// benches: each falls back to the hardware-agnostic equivalent.
	DisablePrior   bool
	DisableAcq     bool
	DisableSampler bool
	// Tracer records per-stage spans of the tuning loop (nil: tracing
	// disabled). Tracing is observation only: it reads no RNG stream and
	// steers no decision, so a traced run is byte-identical to an untraced
	// one for the same seed.
	Tracer *telemetry.Tracer
	// Trace is the parent span context for the session's spans — set by a
	// driving service (glimpsed stamps the job's TraceID/Tenant here) so
	// step and measure spans join a distributed trace. Zero means the
	// session roots its own spans. Like Tracer, it carries identity only
	// and never steers the search.
	Trace telemetry.SpanContext
	// Warm carries transferred state from a tuned-config cache miss (nil:
	// cold start). Donor seeds join the §3.1 initial batch and donor
	// samples pre-train the surrogate; the warm state is deterministic
	// input, so a warm run is reproducible for a fixed store and seed.
	Warm *cache.WarmStart
}

// SetWarmStart installs transferred warm-start state for the next Tune
// call (implements cache.WarmStartable).
func (gl *Glimpse) SetWarmStart(ws *cache.WarmStart) { gl.Warm = ws }

// SetTraceContext installs the parent span context for the next session's
// spans. Generic drivers (fleet.TuneTask) call it through an interface
// assertion, so tuners without tracing support are still accepted.
func (gl *Glimpse) SetTraceContext(sc telemetry.SpanContext) { gl.Trace = sc }

// Name identifies the tuner.
func (gl *Glimpse) Name() string { return "glimpse" }

// LazyGlimpse is a Glimpse tuner that gets its toolkit on the first Tune,
// not when it is built: fleet.TuneTask builds the tuner to key a
// checkpoint lookup by its name, and a task served from the checkpoint or
// the tuned-config cache must not wait for a toolkit it never uses.
// Toolkit is called once per Tune; callers memoize it.
type LazyGlimpse struct {
	Toolkit func() (*Toolkit, error)
	Tracer  *telemetry.Tracer
	trace   telemetry.SpanContext
	warm    *cache.WarmStart
}

// Name is Glimpse's name, so checkpoint keys do not depend on laziness.
func (*LazyGlimpse) Name() string { return new(Glimpse).Name() }

// SetTraceContext and SetWarmStart hold their input for the next Tune.
func (l *LazyGlimpse) SetTraceContext(sc telemetry.SpanContext) { l.trace = sc }
func (l *LazyGlimpse) SetWarmStart(ws *cache.WarmStart)         { l.warm = ws }

// Tune gets the toolkit and runs its Glimpse tuner.
func (l *LazyGlimpse) Tune(task workload.Task, sp *space.Space, m measure.Measurer,
	budget tuner.Budget, g *rng.RNG) (*tuner.Result, error) {

	tk, err := l.Toolkit()
	if err != nil {
		return nil, err
	}
	gl := tk.Tuner()
	gl.Tracer, gl.Trace, gl.Warm = l.Tracer, l.trace, l.warm
	return gl.Tune(task, sp, m, budget, g)
}

// The search's fixed shape, beside the batch size: the explorer keeps
// poolPerBatch candidates per measurement, ensembleSize threshold
// predictors vote on validity, and the prior's log-probability enters the
// annealer's energy at priorWeight.
const (
	poolPerBatch = 4
	ensembleSize = 9
	priorWeight  = 0.15
)

// warmDiscount scales donor surrogate rows below the target's own
// normalized maximum (1.0): transferred samples rank regions, they do not
// assert the target's peak throughput.
const warmDiscount = 0.9

// Tune runs Algorithm 1 for one task under the budget: it opens a
// TuneSession and drives its step loop to completion. Schedulers that
// need to interleave, checkpoint, or preempt sessions drive the same loop
// through NewTuneSession/Step directly; the two paths are byte-identical
// for the same seed and config.
func (gl *Glimpse) Tune(task workload.Task, sp *space.Space, m measure.Measurer,
	budget tuner.Budget, g *rng.RNG) (*tuner.Result, error) {

	ts, err := gl.NewTuneSession(task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}
	for {
		done, err := ts.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return ts.Result(), nil
		}
	}
}

// topMeasured returns the config indices of the k best measurements,
// given their values ys and indices order in measurement order.
func topMeasured(ys []float64, order []int64, k int) []int64 {
	type pair struct {
		idx int64
		y   float64
	}
	pairs := make([]pair, 0, len(ys))
	for i, y := range ys {
		pairs = append(pairs, pair{order[i], y})
	}
	out := make([]int64, 0, k)
	for i := 0; i < k && i < len(pairs); i++ {
		best := i
		for j := i + 1; j < len(pairs); j++ {
			if pairs[j].y > pairs[best].y {
				best = j
			}
		}
		pairs[i], pairs[best] = pairs[best], pairs[i]
		out = append(out, pairs[i].idx)
	}
	return out
}

// scoredCand pairs a candidate index with its acquisition score.
type scoredCand struct {
	idx   int64
	score float64
}

func sortScoredDesc(cands []scoredCand) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// capGPSet bounds the GP training set: when over the cap, keep the
// highest-valued half plus the most recent half.
func capGPSet(xs [][]float64, ys []float64, cap int) ([][]float64, []float64) {
	n := len(ys)
	if n <= cap {
		return xs, ys
	}
	half := cap / 2
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Partial selection of the top-half by value.
	for i := 0; i < half; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if ys[order[j]] > ys[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	keep := map[int]bool{}
	for _, i := range order[:half] {
		keep[i] = true
	}
	for i := n - half; i < n; i++ {
		keep[i] = true
	}
	var ox [][]float64
	var oy []float64
	for i := 0; i < n; i++ {
		if keep[i] {
			ox = append(ox, xs[i])
			oy = append(oy, ys[i])
		}
	}
	return ox, oy
}

func maxOf(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	return mx
}
