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
	PoolSize  int // explorer candidates clustered per step (default 4×batch)
	Model     gbt.Config
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
	pool := c.PoolSize
	if pool <= 0 {
		pool = 4 * batch
	}
	modelCfg := c.Model
	if modelCfg.Trees <= 0 {
		tuned := gbt.DefaultConfig()
		tuned.Trees = 30 // compact in-loop model, as in the AutoTVM baseline
		tuned.Objective, tuned.RankPairs, tuned.Workers = modelCfg.Objective, modelCfg.RankPairs, modelCfg.Workers
		modelCfg = tuned
	}

	s, err := NewSession(c.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}

	var feats [][]float64
	var ys []float64
	visited := map[int64]bool{}
	clusterSampler := sampler.Cluster{}

	record := func(idxs []int64) error {
		results, err := s.MeasureBatch(idxs)
		if err != nil {
			return err
		}
		s.RecordInitialBatch(results)
		for i, r := range results {
			visited[idxs[i]] = true
			v := 0.0
			if r.Valid {
				v = r.GFLOPS
			}
			feats = append(feats, sp.FeaturesAt(idxs[i]))
			ys = append(ys, v)
		}
		return nil
	}

	// Seed batch: random (Chameleon has no prior knowledge either).
	first := make([]int64, s.Remaining(batch))
	for i := range first {
		first[i] = sp.RandomIndex(g)
	}
	if err := record(first); err != nil {
		return nil, err
	}

	plateau := 0
	lastBest := s.res.BestGFLOPS
	for !s.Done() {
		model, err := gbt.Train(feats, ys, modelCfg, g)
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

		problem := anneal.Problem{
			Size:     sp.Size(),
			Score:    gbtScore(model, sp),
			Neighbor: sp.Neighbor,
		}
		top, err := anneal.Run(problem, annealCfg, pool, g)
		if err != nil {
			return nil, err
		}
		cands := make([]int64, 0, len(top))
		for _, r := range top {
			if !visited[r.Index] {
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
		if err := record(selected); err != nil {
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
