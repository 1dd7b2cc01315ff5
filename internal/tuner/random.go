package tuner

import (
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Random measures uniformly random configurations — the weakest baseline
// in Fig. 4 and the sanity floor for every other tuner.
type Random struct {
	// BatchSize is measurements per step (default 16).
	BatchSize int
}

// Name identifies the tuner.
func (r Random) Name() string { return "random" }

// Tune runs random search under the budget.
func (r Random) Tune(task workload.Task, sp *space.Space, m measure.Measurer,
	budget Budget, g *rng.RNG) (*Result, error) {

	batch := r.BatchSize
	if batch <= 0 {
		batch = 16
	}
	s, err := NewSession(r.Name(), task, sp, m, budget, g)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		idxs := make([]int64, s.Remaining(batch))
		if len(idxs) == 0 {
			break
		}
		for i := range idxs {
			idxs[i] = sp.RandomIndex(g)
		}
		if _, err := s.MeasureBatch(idxs); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}
