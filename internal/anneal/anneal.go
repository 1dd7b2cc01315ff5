// Package anneal implements batched simulated annealing over discrete
// configuration indices. AutoTVM, Chameleon, and Glimpse all propose
// measurement candidates by running parallel Markov chains on a surrogate
// cost model; this package is that shared search engine.
//
// Chains step in lockstep groups of GroupSize, and the groups are sharded
// across a bounded worker pool (Config.Workers). The groups share one
// score memo per Run and send only its misses to Score, in one batch
// call per step. Each chain draws from its own RNG stream split from the
// caller's seed, in the same order as a chain stepped alone, and Score
// is pure, so a fixed seed yields byte-identical results for any worker
// count (and any GOMAXPROCS).
package anneal

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// GroupSize is the number of chains stepped in lockstep, and so the most
// indices one Score call receives. It is a constant, never derived from a
// worker count, which keeps the grouping — and every result — the same on
// any machine.
const GroupSize = 16

// Problem describes a discrete maximization problem for the annealer.
// Score and Neighbor may be called from multiple goroutines concurrently
// when the annealer runs with more than one worker; both must be safe for
// concurrent use (pure functions of their arguments in practice).
type Problem struct {
	// Size is the number of points in the space.
	Size int64
	// Score writes the surrogate value to maximize at idx[j] into out[j],
	// for 1..GroupSize distinct indices. It must be pure: Run's memo
	// scores each index once and reuses that value for every later visit.
	Score func(idx []int64, out []float64)
	// Neighbor proposes a move from index i. If nil, a uniform random
	// index is used (pure random-restart annealing).
	Neighbor func(i int64, g *rng.RNG) int64
}

// Config controls the annealing schedule. Non-positive fields default
// independently (see DefaultConfig for the values); a caller setting only
// Steps keeps its Steps and inherits the default Chains, and vice versa.
type Config struct {
	Chains      int     // parallel Markov chains
	Steps       int     // steps per chain
	StartTemp   float64 // initial temperature
	FinalTemp   float64 // final temperature (geometric schedule)
	InitialSeed []int64 // optional starting points (wrapped into chains)
	// Workers bounds the goroutines sharding the chains; <= 0 uses the
	// process-wide default (see internal/parallel), 1 runs serially.
	Workers int
	// Tracer records one "anneal" span per Run (nil: tracing disabled).
	// Tracing is observation only: it never touches the RNG streams, so
	// results are byte-identical with and without it.
	Tracer *telemetry.Tracer
	// Trace parents the Run span into a caller's trace (core sets the
	// current step's context). Zero roots the span; like Tracer, it is
	// identity only and never steers the search.
	Trace telemetry.SpanContext
}

// DefaultConfig mirrors AutoTVM's annealer scale, shrunk to simulator speed.
func DefaultConfig() Config {
	return Config{Chains: 64, Steps: 150, StartTemp: 1.0, FinalTemp: 0.02}
}

// withDefaults fills non-positive fields independently, preserving every
// field the caller did set.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Chains <= 0 {
		cfg.Chains = def.Chains
	}
	if cfg.Steps <= 0 {
		cfg.Steps = def.Steps
	}
	if cfg.StartTemp <= 0 {
		cfg.StartTemp = def.StartTemp
	}
	if cfg.FinalTemp <= 0 || cfg.FinalTemp > cfg.StartTemp {
		cfg.FinalTemp = cfg.StartTemp / 50
	}
	return cfg
}

// Result is a visited point with its surrogate score.
type Result struct {
	Index int64
	Score float64
}

// Scratch is a caller-owned workspace for Run: the score memo, cleared
// per Run, and the chains' RNGs, reseeded in place per Run. A caller that
// anneals again and again (a tuning session, once per step) keeps one
// Scratch and allocates neither again. Reuse never changes a result. A
// Scratch serves one Run at a time; the zero value is ready to use.
type Scratch struct {
	memo     map[int64]float64
	memoHint int // the size memo was made for
	base     *rng.RNG
	chains   []*rng.RNG
}

// Run executes batched simulated annealing with a fresh workspace (see
// Scratch.Run).
func Run(p Problem, cfg Config, topK int, g *rng.RNG) ([]Result, error) {
	return new(Scratch).Run(p, cfg, topK, g)
}

// Run executes batched simulated annealing and returns the topK highest-
// scoring distinct indices visited across all chains, best first, in
// s's workspace.
func (s *Scratch) Run(p Problem, cfg Config, topK int, g *rng.RNG) ([]Result, error) {
	if p.Size <= 0 {
		return nil, fmt.Errorf("anneal: empty space")
	}
	if p.Score == nil {
		return nil, fmt.Errorf("anneal: nil score function")
	}
	cfg = cfg.withDefaults()
	if topK <= 0 {
		topK = 1
	}
	sp, _ := cfg.Tracer.StartSpan(cfg.Trace, telemetry.StageAnneal)
	sp.SetAttr("chains", cfg.Chains)
	sp.SetAttr("steps", cfg.Steps)
	sp.SetAttr("topk", topK)
	defer sp.End()

	neighbor := p.Neighbor
	if neighbor == nil {
		neighbor = func(_ int64, g *rng.RNG) int64 { return g.Int63n(p.Size) }
	}

	cool := math.Pow(cfg.FinalTemp/cfg.StartTemp, 1/float64(cfg.Steps))

	// One salt per Run call, drawn from the parent stream before the
	// parallel region: successive calls on the same RNG explore with fresh
	// streams (Split alone keys off the static seed), while each chain's
	// trajectory stays a pure function of (salt, chain) — independent of
	// worker count and scheduling.
	if s.base == nil {
		s.base = rng.New(g.Int63n(math.MaxInt64))
	} else {
		s.base.Reseed(g.Int63n(math.MaxInt64))
	}
	chainBase := s.base
	// Hoist the fields the group closure reads: it would capture cfg (past
	// the compiler's 128-byte by-value limit) by reference, heap-moving it.
	initialSeed, startTemp, steps, chains := cfg.InitialSeed, cfg.StartTemp, cfg.Steps, cfg.Chains
	// The memo is sized never to grow within a Run.
	if hint := chains * (steps + 1); s.memo == nil || hint > s.memoHint {
		s.memo, s.memoHint = make(map[int64]float64, hint), hint
	} else {
		clear(s.memo)
	}
	if len(s.chains) < chains {
		s.chains = append(s.chains, make([]*rng.RNG, chains-len(s.chains))...)
	}
	var (
		mu       sync.Mutex
		best     = s.memo
		chainRNG = s.chains // each group reseeds only its own chains'
		scored   int        // indices sent to Score: observation only
	)
	parallel.For(cfg.Workers, (chains+GroupSize-1)/GroupSize, func(gi int) {
		lo := gi * GroupSize
		m := min(GroupSize, chains-lo)
		var (
			cg                 [GroupSize]*rng.RNG
			state, idx, miss   [GroupSize]int64
			energy, out, missS [GroupSize]float64
		)
		// fill writes the score of at[j] into into[j], sending the memo's
		// distinct misses to one Score call. Groups racing on an index
		// both score it and store the same value: Score is pure.
		fill := func(at []int64, into []float64) {
			n := 0
			mu.Lock()
			for _, i := range at {
				if _, ok := best[i]; !ok && i >= 0 && i < p.Size && !slices.Contains(miss[:n], i) {
					miss[n] = i
					n++
				}
			}
			mu.Unlock()
			if n > 0 {
				p.Score(miss[:n], missS[:n])
			}
			mu.Lock()
			scored += n
			for k, i := range miss[:n] {
				best[i] = missS[k]
			}
			for j, i := range at {
				into[j] = best[i]
			}
			mu.Unlock()
		}
		for c := 0; c < m; c++ {
			cg[c] = chainBase.SplitInto(chainRNG[lo+c], "chain/"+strconv.Itoa(lo+c))
			chainRNG[lo+c] = cg[c]
			if lo+c < len(initialSeed) {
				state[c] = initialSeed[lo+c] % p.Size
				if state[c] < 0 {
					state[c] += p.Size
				}
			} else {
				state[c] = cg[c].Int63n(p.Size)
			}
		}
		fill(state[:m], energy[:m])

		temp := startTemp
		for step := 0; step < steps; step++ {
			// Each chain proposes from its own stream and draws its
			// acceptance in chain order: the draws of a chain stepped alone.
			for c := 0; c < m; c++ {
				idx[c] = neighbor(state[c], cg[c])
			}
			fill(idx[:m], out[:m])
			for c := 0; c < m; c++ {
				if idx[c] < 0 || idx[c] >= p.Size {
					continue // left the space: no score, no acceptance draw
				}
				delta := out[c] - energy[c]
				if delta >= 0 || cg[c].Float64() < math.Exp(delta/temp) {
					state[c], energy[c] = idx[c], out[c]
				}
			}
			temp *= cool
			// A step need not block: yield, so a server's goroutines do not
			// wait behind it for Go's 10 ms preemption slice.
			runtime.Gosched()
		}
	})

	sp.SetAttr("scored", scored) // varies with scheduling at >1 worker
	sp.SetAttr("visited", len(best))
	return topResults(best, topK), nil
}

// rank orders results best first: score descending, NaN lowest (the
// order of cmp.Compare, which also ties -0 with +0), then index
// ascending. Indices are distinct, so the order is total.
func rank(a, b Result) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// topResults returns the k best memo entries in rank order: the first k
// of a full sort, without sorting every visited point. A heap keeps the
// best k seen so far with the worst at its root, so a point outside them
// costs one comparison.
func topResults(memo map[int64]float64, k int) []Result {
	h := make([]Result, 0, min(k, len(memo)))
	for i, sc := range memo {
		r := Result{Index: i, Score: sc}
		switch {
		case len(h) < k:
			h = append(h, r)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if rank(h[p], h[c]) > 0 {
					break // the parent is already the worse
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
		case rank(r, h[0]) < 0:
			h[0] = r
			for p := 0; ; {
				w := 2*p + 1
				if w >= len(h) {
					break
				}
				if w+1 < len(h) && rank(h[w+1], h[w]) > 0 {
					w++
				}
				if rank(h[p], h[w]) > 0 {
					break // worse than both children
				}
				h[p], h[w] = h[w], h[p]
				p = w
			}
		}
	}
	slices.SortFunc(h, rank)
	return h
}
