package tuner

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/gp"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// DGP is the ICCV'21 baseline (Sun et al.): Bayesian optimization whose
// surrogate is a deep Gaussian process — a neural feature extractor
// pretrained on source-task tuning logs, with an exact GP head conditioned
// on target-task measurements. Knowledge transfers through the shared
// feature extractor; Expected Improvement drives acquisition. Like the
// other baselines it is hardware-agnostic: the extractor sees
// configuration features, never the architecture.
type DGP struct {
	BatchSize int // measurements per step (default 8; GP refits are costly)
	// Source is the pretraining corpus: featurized configurations and
	// GFLOPS from other tuning runs of the same template kind.
	Source *TransferData
	// PretrainEpochs for the feature extractor (default 150).
	PretrainEpochs int
}

// dgpFeatureDim is the width of the learned GP input space.
const dgpFeatureDim = 6

// Name identifies the tuner.
func (d DGP) Name() string { return "dgp" }

// Tune runs the DGP loop under the budget.
func (d DGP) Tune(task workload.Task, sp *space.Space, m measure.Measurer,
	budget Budget, g *rng.RNG) (*Result, error) {

	if d.Source == nil || len(d.Source.Features) == 0 {
		return nil, fmt.Errorf("tuner: DGP requires source-task data for pretraining")
	}
	batch := d.BatchSize
	if batch <= 0 {
		batch = 8
	}
	pool := 32 * batch // candidates EI-ranked per step
	epochs := d.PretrainEpochs
	if epochs <= 0 {
		epochs = 150
	}

	s, err := NewSession(d.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}

	deep := gp.NewDeepRegressor(len(d.Source.Features[0]), dgpFeatureDim, g.Split("deep"))
	// Normalize source targets so the extractor learns shape, not scale.
	srcY := Normalize(d.Source.GFLOPS)
	if err := deep.PretrainSource(d.Source.Features, srcY, epochs, g.Split("pretrain")); err != nil {
		return nil, err
	}

	// Warm start: condition the GP head on the source corpus itself and
	// pick the first batch by Expected Improvement — the transferred
	// posterior is DGP's whole point (Sun et al. §3).
	first := make([]int64, 0, batch)
	if err := deep.FitTarget(subsample(d.Source.Features, srcY, 160, g)); err == nil {
		type cand struct {
			idx int64
			ei  float64
		}
		var pool2 []cand
		for i := 0; i < pool; i++ {
			idx := sp.RandomIndex(g)
			mean, variance, err := deep.Predict(sp.FeaturesAt(idx))
			if err != nil {
				return nil, err
			}
			pool2 = append(pool2, cand{idx, acq.EI(mean, SqrtPos(variance), 1)})
		}
		n := s.Remaining(batch)
		for len(first) < n && len(pool2) > 0 {
			best := 0
			for j := 1; j < len(pool2); j++ {
				if pool2[j].ei > pool2[best].ei {
					best = j
				}
			}
			first = append(first, pool2[best].idx)
			pool2[best] = pool2[len(pool2)-1]
			pool2 = pool2[:len(pool2)-1]
		}
	}
	for len(first) < s.Remaining(batch) {
		first = append(first, sp.RandomIndex(g))
	}
	if _, err := s.MeasureBatch(first); err != nil {
		return nil, err
	}

	for !s.Done() {
		if err := deep.FitTarget(s.Features(), Normalize(s.Values())); err != nil {
			return nil, err
		}
		best01 := max01(s.Values())
		// Candidate pool: broad random exploration plus the incumbent's
		// neighbourhood (the GP posterior is most trustworthy near observed
		// data — annealing on the raw posterior mean chases extrapolation
		// artifacts), ranked by Expected Improvement.
		cands := make([]scoredCand, 0, pool)
		score := func(idx int64) error {
			if s.Visited(idx) {
				return nil
			}
			mean, variance, err := deep.Predict(sp.FeaturesAt(idx))
			if err != nil {
				return err
			}
			cands = append(cands, scoredCand{idx, acq.EI(mean, SqrtPos(variance), best01)})
			return nil
		}
		for i := 0; i < pool; i++ {
			if err := score(sp.RandomIndex(g)); err != nil {
				return nil, err
			}
		}
		if bi := s.Snapshot().BestIndex; bi >= 0 {
			cursor := bi
			for i := 0; i < pool/2; i++ {
				cursor = sp.Neighbor(cursor, g)
				if err := score(cursor); err != nil {
					return nil, err
				}
				if i%8 == 7 {
					cursor = bi // restart the walk at the incumbent
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		// Pick the top-batch by EI.
		n := s.Remaining(batch)
		if n == 0 {
			break
		}
		selectTopEI(cands, n)
		idxs := make([]int64, 0, n)
		for i := 0; i < n && i < len(cands); i++ {
			idxs = append(idxs, cands[i].idx)
		}
		if _, err := s.MeasureBatch(idxs); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// scoredCand pairs a candidate index with its acquisition score.
type scoredCand struct {
	idx int64
	ei  float64
}

// selectTopEI partially sorts cands so the first n entries have the
// highest EI.
func selectTopEI(cands []scoredCand, n int) {
	for i := 0; i < n && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].ei > cands[best].ei {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
}

// subsample caps a corpus at n rows (uniform, without replacement) so the
// warm-start GP factorization stays cheap.
func subsample(x [][]float64, y []float64, n int, g *rng.RNG) ([][]float64, []float64) {
	if len(x) <= n {
		return x, y
	}
	picks := g.SampleWithoutReplacement(len(x), n)
	ox := make([][]float64, 0, n)
	oy := make([]float64, 0, n)
	for _, i := range picks {
		ox = append(ox, x[i])
		oy = append(oy, y[i])
	}
	return ox, oy
}

// max01 is the incumbent in normalized space: 1 when any measurement
// succeeded, 0 otherwise.
func max01(v []float64) float64 {
	for _, x := range v {
		if x > 0 {
			return 1
		}
	}
	return 0
}
