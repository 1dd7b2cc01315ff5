package sampler

import (
	"fmt"
	"math"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// DefaultTau is the paper's grid-searched rejection threshold τ = 1/3.
const DefaultTau = 1.0 / 3.0

// Floors for Blueprint-reconstructed limits. The PCA reconstruction is
// lossy and can return zero or negative values for small-dim embeddings;
// a threshold at or below zero makes every predictor vote invalid, so the
// ensemble would reject every configuration. No real GPU sits below these.
const (
	minThreadsFloor = 32       // one warp
	minSmemFloor    = 4 << 10  // 4 KiB shared memory per block
	minRegsFloor    = 16 << 10 // 16k registers per SM
)

// thresholds are the resource limits one ensemble member checks against.
type thresholds struct {
	maxThreads  float64
	maxSmem     float64 // bytes
	maxRegsPool float64 // per-SM register file
	maxVThreads float64
	maxBlocks   float64
}

// predictor is one O(1) threshold-based member of the ensemble. Members
// differ by a deterministic jitter on their thresholds, which is what makes
// the vote more robust than a single reconstructed limit: the Blueprint is
// lossy, so individual thresholds carry reconstruction error.
type predictor struct {
	th thresholds
}

// vote returns true when the predictor considers the config INVALID.
func (p predictor) vote(res space.Resources) bool {
	switch {
	case float64(res.ThreadsPerBlock) > p.th.maxThreads:
		return true
	case float64(res.SharedMemBytes) > p.th.maxSmem:
		return true
	case float64(res.RegsPerThread)*float64(res.ThreadsPerBlock) > p.th.maxRegsPool:
		return true
	case float64(res.VThreads) > p.th.maxVThreads:
		return true
	case float64(res.Blocks) > p.th.maxBlocks:
		return true
	}
	return false
}

// Ensemble is Glimpse's Hardware-Aware Sampling: threshold predictors
// generated from the Blueprint embedding of an (unseen) target GPU.
type Ensemble struct {
	Tau float64
	// Workers bounds the goroutines of Select's vote; <= 0 uses the
	// process-wide default (see internal/parallel).
	Workers    int
	predictors []predictor
}

// NewEnsemble generates the predictor ensemble for a target GPU from its
// Blueprint vector alone. size controls the ensemble cardinality (default
// 9); tau ≤ 0 selects the paper's τ = 1/3, tau > 1 is rejected (the vote
// fraction can never exceed 1, so such an ensemble could never reject and
// silently disables §3.3). Thresholds reconstructed as zero/negative from
// a lossy Blueprint are clamped to hardware floors — otherwise every
// predictor votes invalid and the ensemble rejects every configuration.
func NewEnsemble(emb *blueprint.Embedding, blueprintVec []float64, size int, tau float64, g *rng.RNG) (*Ensemble, error) {
	if size <= 0 {
		size = 9
	}
	if tau > 1 {
		return nil, fmt.Errorf("sampler: tau %g > 1 can never reject (want 0 < tau <= 1, or <= 0 for the default %g)", tau, DefaultTau)
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	get := func(name string) (float64, error) {
		return emb.ReconstructFeature(blueprintVec, name)
	}
	maxThreads, err := get("max_threads_per_block")
	if err != nil {
		return nil, err
	}
	maxSmemKB, err := get("max_smem_per_block_kb")
	if err != nil {
		return nil, err
	}
	regsPerSM, err := get("regs_per_sm")
	if err != nil {
		return nil, err
	}
	base := thresholds{
		maxThreads:  clampFloor(maxThreads, minThreadsFloor),
		maxSmem:     clampFloor(maxSmemKB*1024, minSmemFloor),
		maxRegsPool: clampFloor(regsPerSM, minRegsFloor),
		maxVThreads: 64,                     // TVM verifier constant
		maxBlocks:   float64(1) * (1 << 31), // CUDA grid limit
	}
	e := &Ensemble{Tau: tau}
	for i := 0; i < size; i++ {
		jitter := func() float64 { return 0.9 + 0.2*g.Float64() }
		e.predictors = append(e.predictors, predictor{th: thresholds{
			maxThreads:  base.maxThreads * jitter(),
			maxSmem:     base.maxSmem * jitter(),
			maxRegsPool: base.maxRegsPool * jitter(),
			maxVThreads: base.maxVThreads * jitter(),
			maxBlocks:   base.maxBlocks,
		}})
	}
	return e, nil
}

// Accept reports whether the ensemble lets a configuration through to
// measurement: it is rejected when more than Tau of the predictors vote it
// invalid.
func (e *Ensemble) Accept(task workload.Task, sp *space.Space, idx int64) bool {
	res, err := space.Derive(task, sp, sp.FromIndex(idx))
	if err != nil {
		return false
	}
	invalid := 0
	for _, p := range e.predictors {
		if p.vote(res) {
			invalid++
		}
	}
	return float64(invalid) <= e.Tau*float64(len(e.predictors))
}

// Select filters the explorer's candidates through the ensemble vote,
// preserving order, and returns up to n survivors. If fewer than n survive
// it tops up with the best-ranked rejected candidates (the tuner must fill
// its measurement batch; the vote is advisory, exactly like §3.3's τ rule).
// The votes are evaluated through the worker pool; the selection itself is
// a serial scan over the vote slice, so the result is identical for any
// worker count.
func (e *Ensemble) Select(task workload.Task, sp *space.Space, cands []int64, n int, _ *rng.RNG) []int64 {
	if n <= 0 {
		return nil
	}
	accepted := parallel.Map(e.Workers, len(cands), func(i int) bool {
		return e.Accept(task, sp, cands[i])
	})
	out := make([]int64, 0, n)
	rejected := make([]int64, 0, len(cands))
	for i, idx := range cands {
		if len(out) >= n {
			break
		}
		if accepted[i] {
			out = append(out, idx)
		} else {
			rejected = append(rejected, idx)
		}
	}
	for _, idx := range rejected {
		if len(out) >= n {
			break
		}
		out = append(out, idx)
	}
	return out
}

// clampFloor lifts a lossy reconstruction to a physical floor; NaN (a
// degenerate Blueprint) also clamps.
func clampFloor(v, floor float64) float64 {
	if math.IsNaN(v) || v < floor {
		return floor
	}
	return v
}

// Size returns the ensemble cardinality.
func (e *Ensemble) Size() int { return len(e.predictors) }

// String describes the ensemble.
func (e *Ensemble) String() string {
	return fmt.Sprintf("ensemble(%d predictors, τ=%.2f)", len(e.predictors), e.Tau)
}
