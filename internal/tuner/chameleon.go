package tuner

import (
	"github.com/neuralcompile/glimpse/internal/anneal"
	"github.com/neuralcompile/glimpse/internal/gbt"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/sampler"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Chameleon is the ICLR'20 baseline: the AutoTVM skeleton plus (i)
// Adaptive Exploration — the annealing effort shrinks as the search
// plateaus, cutting wasted search steps — and (ii) Adaptive Sampling —
// the proposed candidate pool is clustered and only cluster
// representatives are measured, cutting redundant measurements. Both are
// hardware-agnostic: validity and architecture never enter the loop.
type Chameleon struct {
	BatchSize int // measurements per step (default 16)
}

// Name identifies the tuner.
func (c Chameleon) Name() string { return "chameleon" }

// Tune runs the Chameleon loop under the budget.
func (c Chameleon) Tune(task workload.Task, sp *space.Space, m measure.Measurer,
	budget Budget, g *rng.RNG) (*Result, error) {

	batch := c.BatchSize
	if batch <= 0 {
		batch = 16
	}
	pool := 4 * batch // explorer candidates clustered per step
	modelCfg := compactModel(gbt.Config{})

	s, err := NewSession(c.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}
	clusterSampler := sampler.Cluster{}

	// Seed batch: random (Chameleon has no prior knowledge either).
	first := make([]int64, s.Remaining(batch))
	for i := range first {
		first[i] = sp.RandomIndex(g)
	}
	if _, err := s.MeasureBatch(first); err != nil {
		return nil, err
	}

	plateau := 0
	lastBest := s.res.BestGFLOPS
	for !s.Done() {
		model, err := gbt.Train(s.Features(), s.Values(), modelCfg, g)
		if err != nil {
			return nil, err
		}
		// Adaptive Exploration: shrink annealing effort as progress stalls.
		annealCfg := anneal.DefaultConfig()
		annealCfg.Steps = adaptiveSteps(annealCfg.Steps, plateau)
		annealCfg.Chains = adaptiveSteps(annealCfg.Chains, plateau)
		var seeds []int64
		if s.res.BestIndex >= 0 {
			seeds = append(seeds, s.res.BestIndex)
		}
		annealCfg.InitialSeed = seeds

		top, err := s.Anneal(gbtProblem(model, sp), annealCfg, pool, g)
		if err != nil {
			return nil, err
		}
		cands := make([]int64, 0, len(top))
		for _, r := range top {
			if !s.Visited(r.Index) {
				cands = append(cands, r.Index)
			}
		}
		if len(cands) == 0 {
			break
		}
		// Adaptive Sampling: cluster and measure representatives only.
		selected := clusterSampler.Select(task, sp, cands, s.Remaining(batch), g)
		if len(selected) == 0 {
			break
		}
		if _, err := s.MeasureBatch(selected); err != nil {
			return nil, err
		}
		if s.res.BestGFLOPS > lastBest*1.01 {
			plateau = 0
			lastBest = s.res.BestGFLOPS
		} else {
			plateau++
		}
	}
	return s.Finish(), nil
}

// adaptiveSteps halves the effort for each plateaued step, floored at 1/4.
func adaptiveSteps(base, plateau int) int {
	out := base
	for i := 0; i < plateau && out > base/4; i++ {
		out = out * 3 / 4
	}
	if out < base/4 {
		out = base / 4
	}
	if out < 1 {
		out = 1
	}
	return out
}
