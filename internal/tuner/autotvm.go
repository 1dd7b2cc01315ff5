package tuner

import (
	"github.com/neuralcompile/glimpse/internal/anneal"
	"github.com/neuralcompile/glimpse/internal/gbt"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// TransferData is prior tuning history (featurized configurations and
// their measured GFLOPS) used for AutoTVM-style transfer learning: the
// cost model is warm-started from logs of other (task, hardware) runs.
type TransferData struct {
	Features [][]float64
	GFLOPS   []float64
}

// AutoTVM is the NeurIPS'18 baseline: a gradient-boosted cost model fit on
// accumulated measurements, simulated annealing over the model to propose
// candidates, and ε-greedy random exploration. Hardware knowledge enters
// only through measurements — it is the canonical hardware-agnostic tuner.
type AutoTVM struct {
	BatchSize int           // measurements per step (default 16)
	Epsilon   float64       // random fraction per batch (default 0.1)
	Transfer  *TransferData // optional transfer-learning warm start
	Anneal    anneal.Config // SA schedule (default DefaultConfig)
	Model     gbt.Config    // cost-model config (default DefaultConfig)
}

// Name identifies the tuner.
func (a AutoTVM) Name() string {
	if a.Transfer != nil {
		return "autotvm-tl"
	}
	return "autotvm"
}

// Tune runs the AutoTVM loop under the budget.
func (a AutoTVM) Tune(task workload.Task, sp *space.Space, m measure.Measurer,
	budget Budget, g *rng.RNG) (*Result, error) {

	batch := a.BatchSize
	if batch <= 0 {
		batch = 16
	}
	eps := a.Epsilon
	if eps <= 0 {
		eps = 0.1
	}
	// anneal.Run defaults non-positive schedule fields individually, so a
	// partial a.Anneal (e.g. only Workers set) passes through untouched.
	annealCfg := a.Anneal
	modelCfg := a.Model
	if modelCfg.Trees <= 0 {
		tuned := gbt.DefaultConfig()
		tuned.Trees = 30 // compact in-loop model (AutoTVM's plan-size scale)
		tuned.Objective, tuned.RankPairs, tuned.Workers = modelCfg.Objective, modelCfg.RankPairs, modelCfg.Workers
		modelCfg = tuned
	}

	s, err := NewSession(a.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}

	var feats [][]float64
	var ys []float64
	visited := map[int64]bool{}

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

	// First batch: random, or model-guided when transfer logs exist.
	first := make([]int64, s.Remaining(batch))
	for i := range first {
		first[i] = sp.RandomIndex(g)
	}
	if a.Transfer != nil && len(a.Transfer.Features) > 0 {
		model, err := gbt.Train(a.Transfer.Features, a.Transfer.GFLOPS, modelCfg, g.Split("tl-model"))
		if err == nil {
			if proposal := a.propose(sp, model, nil, batch, annealCfg, visited, eps, g.Split("tl-propose")); len(proposal) > 0 {
				first = proposal[:min(len(proposal), s.Remaining(batch))]
			}
		}
	}
	if err := record(first); err != nil {
		return nil, err
	}

	for !s.Done() {
		// Warm-up: keep sampling randomly until the cost model has enough
		// signal to rank candidates (AutoTVM's plan_size warm-up).
		if len(ys) < 2*batch && a.Transfer == nil {
			idxs := make([]int64, 0, s.Remaining(batch))
			for len(idxs) < s.Remaining(batch) {
				idx := sp.RandomIndex(g)
				if !visited[idx] {
					visited[idx] = true
					idxs = append(idxs, idx)
				}
			}
			if len(idxs) == 0 {
				break
			}
			if err := record(idxs); err != nil {
				return nil, err
			}
			continue
		}
		trainX, trainY := feats, ys
		if a.Transfer != nil && len(a.Transfer.Features) > 0 {
			trainX = append(append([][]float64{}, a.Transfer.Features...), feats...)
			trainY = append(append([]float64{}, a.Transfer.GFLOPS...), ys...)
		}
		model, err := gbt.Train(trainX, trainY, modelCfg, g)
		if err != nil {
			return nil, err
		}
		var seeds []int64
		if s.res.BestIndex >= 0 {
			seeds = append(seeds, s.res.BestIndex)
		}
		idxs := a.propose(sp, model, seeds, s.Remaining(batch), annealCfg, visited, eps, g)
		if len(idxs) == 0 {
			break
		}
		if err := record(idxs); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// propose runs SA over the cost model and assembles an ε-greedy batch of
// unvisited candidates.
func (a AutoTVM) propose(sp *space.Space, model *gbt.Ensemble, seeds []int64, n int,
	cfg anneal.Config, visited map[int64]bool, eps float64, g *rng.RNG) []int64 {

	if n <= 0 {
		return nil
	}
	cfg.InitialSeed = seeds
	problem := anneal.Problem{
		Size:     sp.Size(),
		Score:    gbtScore(model, sp),
		Neighbor: sp.Neighbor,
	}
	top, err := anneal.Run(problem, cfg, 4*n, g)
	if err != nil {
		return nil
	}
	out := make([]int64, 0, n)
	nRandom := int(eps * float64(n))
	// Walk the ranked list with a stride so the batch spans several score
	// levels instead of one tight cluster of near-identical neighbours.
	for stride := 2; stride >= 1 && len(out) < n-nRandom; stride-- {
		for i := 0; i < len(top) && len(out) < n-nRandom; i += stride {
			r := top[i]
			if !visited[r.Index] {
				out = append(out, r.Index)
				visited[r.Index] = true
			}
		}
	}
	for len(out) < n {
		idx := sp.RandomIndex(g)
		if !visited[idx] {
			out = append(out, idx)
			visited[idx] = true
		}
	}
	return out
}

// gbtScore is the annealer's batch energy for a GBT cost model.
func gbtScore(model *gbt.Ensemble, sp *space.Space) func(idx []int64, out []float64) {
	return func(idx []int64, out []float64) {
		buf := make([]float64, 0, sp.FeatureLen())
		for j, i := range idx {
			buf = sp.FeaturesInto(i, buf)
			out[j] = model.Predict(buf)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
