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
	Transfer  *TransferData // optional transfer-learning warm start
	Anneal    anneal.Config // SA schedule (default DefaultConfig)
	Model     gbt.Config    // cost-model config (default compactModel)
}

// autotvmEpsilon is the random fraction of each model-guided batch.
const autotvmEpsilon = 0.1

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
	// anneal.Run defaults non-positive schedule fields individually, so a
	// partial a.Anneal (e.g. only Workers set) passes through untouched.
	annealCfg := a.Anneal
	modelCfg := compactModel(a.Model)

	s, err := NewSession(a.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}

	// First batch: random, or model-guided when transfer logs exist.
	first := make([]int64, s.Remaining(batch))
	for i := range first {
		first[i] = sp.RandomIndex(g)
	}
	if a.Transfer != nil && len(a.Transfer.Features) > 0 {
		model, err := gbt.Train(a.Transfer.Features, a.Transfer.GFLOPS, modelCfg, g.Split("tl-model"))
		if err == nil {
			if proposal := propose(s, model, nil, batch, annealCfg, g.Split("tl-propose")); len(proposal) > 0 {
				first = proposal[:min(len(proposal), s.Remaining(batch))]
			}
		}
	}
	if _, err := s.MeasureBatch(first); err != nil {
		return nil, err
	}

	for !s.Done() {
		// Warm-up: keep sampling randomly until the cost model has enough
		// signal to rank candidates (AutoTVM's plan_size warm-up).
		if len(s.Values()) < 2*batch && a.Transfer == nil {
			idxs := make([]int64, 0, s.Remaining(batch))
			for len(idxs) < s.Remaining(batch) {
				idx := sp.RandomIndex(g)
				if !s.Visited(idx) {
					s.Visit(idx)
					idxs = append(idxs, idx)
				}
			}
			if len(idxs) == 0 {
				break
			}
			if _, err := s.MeasureBatch(idxs); err != nil {
				return nil, err
			}
			continue
		}
		trainX, trainY := s.Features(), s.Values()
		if a.Transfer != nil && len(a.Transfer.Features) > 0 {
			trainX = append(append([][]float64{}, a.Transfer.Features...), trainX...)
			trainY = append(append([]float64{}, a.Transfer.GFLOPS...), trainY...)
		}
		model, err := gbt.Train(trainX, trainY, modelCfg, g)
		if err != nil {
			return nil, err
		}
		var seeds []int64
		if s.res.BestIndex >= 0 {
			seeds = append(seeds, s.res.BestIndex)
		}
		idxs := propose(s, model, seeds, s.Remaining(batch), annealCfg, g)
		if len(idxs) == 0 {
			break
		}
		if _, err := s.MeasureBatch(idxs); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// propose runs SA over the cost model and assembles an ε-greedy batch of
// unvisited candidates, reserving each with s.Visit.
func propose(s *Session, model *gbt.Ensemble, seeds []int64, n int,
	cfg anneal.Config, g *rng.RNG) []int64 {

	if n <= 0 {
		return nil
	}
	cfg.InitialSeed = seeds
	top, err := s.Anneal(gbtProblem(model, s.sp), cfg, 4*n, g)
	if err != nil {
		return nil
	}
	out := make([]int64, 0, n)
	nRandom := int(autotvmEpsilon * float64(n))
	// Walk the ranked list with a stride so the batch spans several score
	// levels instead of one tight cluster of near-identical neighbours.
	for stride := 2; stride >= 1 && len(out) < n-nRandom; stride-- {
		for i := 0; i < len(top) && len(out) < n-nRandom; i += stride {
			r := top[i]
			if !s.Visited(r.Index) {
				out = append(out, r.Index)
				s.Visit(r.Index)
			}
		}
	}
	for len(out) < n {
		idx := s.sp.RandomIndex(g)
		if !s.Visited(idx) {
			out = append(out, idx)
			s.Visit(idx)
		}
	}
	return out
}

// compactModel is the in-loop cost model AutoTVM and Chameleon refit
// every round: gbt's defaults at 30 trees (AutoTVM's plan-size scale),
// keeping base's objective, rank pairs, workers and tracer. A base that
// sets Trees is used as is.
func compactModel(base gbt.Config) gbt.Config {
	if base.Trees > 0 {
		return base
	}
	cfg := gbt.DefaultConfig()
	cfg.Trees = 30
	cfg.Objective, cfg.RankPairs, cfg.Workers, cfg.Tracer = base.Objective, base.RankPairs, base.Workers, base.Tracer
	return cfg
}

// gbtProblem is the annealer's problem over sp for a GBT cost model: its
// batch energy is the model's prediction.
func gbtProblem(model *gbt.Ensemble, sp *space.Space) anneal.Problem {
	return anneal.Problem{
		Size: sp.Size(),
		Score: func(idx []int64, out []float64) {
			buf := make([]float64, 0, sp.FeatureLen())
			for j, i := range idx {
				buf = sp.FeaturesInto(i, buf)
				out[j] = model.Predict(buf)
			}
		},
		Neighbor: sp.Neighbor,
	}
}
