// Package anneal implements batched simulated annealing over discrete
// configuration indices. AutoTVM, Chameleon, and Glimpse all propose
// measurement candidates by running parallel Markov chains on a surrogate
// cost model; this package is that shared search engine.
//
// Chains step in lockstep groups of GroupSize, and the groups are sharded
// across a bounded worker pool (Config.Workers). A group scores its
// chains' proposals in one batch call, so a surrogate can evaluate them
// together. Each chain draws from its own RNG stream split from the
// caller's seed, in the same order as a chain stepped alone, and
// per-chain visited maps are merged in chain order, so a fixed seed yields
// byte-identical results for any worker count (and any GOMAXPROCS).
package anneal

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"

	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// GroupSize is the number of chains stepped in lockstep, and so the most
// indices one Score call receives. It is a constant, never derived from a
// worker count, which keeps the grouping — and every result — the same on
// any machine.
const GroupSize = 4

// Problem describes a discrete maximization problem for the annealer.
// Score and Neighbor may be called from multiple goroutines concurrently
// when the annealer runs with more than one worker; both must be safe for
// concurrent use (pure functions of their arguments in practice).
type Problem struct {
	// Size is the number of points in the space.
	Size int64
	// Score writes the surrogate value to maximize at idx[j] into out[j],
	// for 1..GroupSize indices. Each value must depend on its index only,
	// not on the batch it arrives in.
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

// Run executes batched simulated annealing and returns the topK highest-
// scoring distinct indices visited across all chains, best first.
func Run(p Problem, cfg Config, topK int, g *rng.RNG) ([]Result, error) {
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
	chainBase := rng.New(g.Int63n(math.MaxInt64))
	// Hoist the fields the group closure reads: capturing cfg itself would
	// capture it by reference (Config is past the compiler's 128-byte
	// by-value limit) and heap-move it on every Run.
	initialSeed, startTemp, steps, chains := cfg.InitialSeed, cfg.StartTemp, cfg.Steps, cfg.Chains
	groups := parallel.Map(cfg.Workers, (chains+GroupSize-1)/GroupSize, func(gi int) []map[int64]float64 {
		lo := gi * GroupSize
		m := min(GroupSize, chains-lo)
		var (
			cg     [GroupSize]*rng.RNG
			state  [GroupSize]int64
			energy [GroupSize]float64
			idx    [GroupSize]int64
			out    [GroupSize]float64
			owner  [GroupSize]int // chain of each batch slot
		)
		for c := 0; c < m; c++ {
			cg[c] = chainBase.Split("chain/" + strconv.Itoa(lo+c))
			if lo+c < len(initialSeed) {
				state[c] = initialSeed[lo+c] % p.Size
				if state[c] < 0 {
					state[c] += p.Size
				}
			} else {
				state[c] = cg[c].Int63n(p.Size)
			}
		}
		p.Score(state[:m], energy[:m])
		visited := make([]map[int64]float64, m)
		for c := range visited {
			visited[c] = make(map[int64]float64, steps+1)
			visited[c][state[c]] = energy[c]
		}

		temp := startTemp
		for step := 0; step < steps; step++ {
			// Every chain proposes from its own stream, the group scores
			// the in-range proposals in one call, then each chain draws
			// its acceptance in chain order: per chain, the same draws in
			// the same order as stepping it alone.
			nb := 0
			for c := 0; c < m; c++ {
				if cand := neighbor(state[c], cg[c]); cand >= 0 && cand < p.Size {
					idx[nb], owner[nb] = cand, c
					nb++
				}
			}
			if nb > 0 {
				p.Score(idx[:nb], out[:nb])
			}
			for j := 0; j < nb; j++ {
				c, cand, s := owner[j], idx[j], out[j]
				if old, ok := visited[c][cand]; !ok || s > old {
					visited[c][cand] = s
				}
				delta := s - energy[c]
				if delta >= 0 || cg[c].Float64() < math.Exp(delta/temp) {
					state[c] = cand
					energy[c] = s
				}
			}
			temp *= cool
			// A step neither blocks nor, once the maps have grown,
			// allocates, so nothing hands this P to another goroutine
			// before Go's 10 ms preemption slice ends. Yield once per
			// step so a server's request and progress goroutines do not
			// wait behind the annealer; the yield touches no data.
			runtime.Gosched()
		}
		return visited
	})

	// Deterministic reduction: merge per-chain maps in chain order.
	best := make(map[int64]float64, cfg.Chains*4)
	for _, group := range groups {
		for _, visited := range group {
			for i, s := range visited {
				if old, ok := best[i]; !ok || s > old {
					best[i] = s
				}
			}
		}
	}

	sp.SetAttr("visited", len(best))
	out := make([]Result, 0, len(best))
	for i, s := range best {
		out = append(out, Result{Index: i, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		//glint:ignore floateq -- exact tie-break in a sort comparator; an epsilon would break strict weak ordering
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
