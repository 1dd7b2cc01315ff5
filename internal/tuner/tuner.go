// Package tuner defines the tuning-session abstraction shared by every
// compiler in the evaluation, and implements the hardware-agnostic
// baselines the paper compares against: Random search, AutoTVM (gradient-
// boosted cost model + simulated annealing, with optional transfer
// learning), Chameleon (adaptive exploration + clustering-based sampling),
// and DGP (deep Gaussian-process transfer). Glimpse itself lives in
// internal/core and implements the same Tuner interface.
//
// Every tuner runs one skeleton: measure a batch, record it, fit a
// surrogate, propose unvisited points. Session owns everything but the
// surrogate and the proposal: the budget and convergence rule, the
// measured history (indices, features and values in measurement order,
// and the visited set), and the annealer's workspace.
package tuner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/neuralcompile/glimpse/internal/anneal"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Budget bounds a tuning session. Zero fields disable that bound; at least
// one of MaxMeasurements / MaxGPUSeconds must be set.
type Budget struct {
	MaxMeasurements int
	MaxGPUSeconds   float64
	// Patience stops the session after this many consecutive batches whose
	// best does not improve by more than Epsilon (relative). Zero disables.
	Patience int
	Epsilon  float64
}

func (b Budget) validate() error {
	if b.MaxMeasurements <= 0 && b.MaxGPUSeconds <= 0 {
		return fmt.Errorf("tuner: budget must bound measurements or GPU seconds")
	}
	return nil
}

// StepRecord snapshots progress after one measurement batch.
type StepRecord struct {
	Step         int
	Measurements int
	BestGFLOPS   float64
	GPUSeconds   float64
}

// Measured is one (configuration, performance) pair a session measured.
type Measured struct {
	Index  int64   `json:"index"`
	GFLOPS float64 `json:"gflops"`
}

// TopMeasuredCap bounds how many of a session's best measurements the
// Result retains (enough to pre-train a transferred surrogate, small
// enough to store per cache entry).
const TopMeasuredCap = 32

// Result summarizes a tuning session.
type Result struct {
	TunerName    string
	TaskName     string
	BestIndex    int64
	BestGFLOPS   float64
	BestTimeMS   float64
	Measurements int
	Invalid      int
	GPUSeconds   float64
	Steps        int
	Converged    bool
	History      []StepRecord
	// InitialBatch records the first batch's measured GFLOPS (Fig. 4).
	InitialBatch []float64
	// TopMeasured holds the session's best valid measurements (best
	// GFLOPS first, deduped by configuration, capped at TopMeasuredCap) —
	// the donor samples a tuned-config cache stores for nearest-neighbor
	// warm starts. Populated by Finish; Snapshot leaves it nil.
	TopMeasured []Measured
}

// Tuner optimizes one task on one device within a budget.
type Tuner interface {
	Name() string
	Tune(task workload.Task, sp *space.Space, m measure.Measurer, budget Budget, g *rng.RNG) (*Result, error)
}

// Session carries the shared bookkeeping of one tuning run; exported so
// Glimpse in internal/core shares it with the baselines. It owns:
//   - the budget and the convergence rule (Remaining, Done);
//   - the Result, including the first batch's values (Fig. 4);
//   - the measured history: every measured index in measurement order,
//     with its features and its value (GFLOPS if valid, else 0);
//   - the visited set: every measured index, plus any a proposer
//     reserved with Visit before measuring it;
//   - one anneal.Scratch, so a tuner that anneals every round allocates
//     the annealer's memo and chain RNGs once per run.
//
// Tuners read the history; only MeasureBatch appends to it.
type Session struct {
	task   workload.Task
	sp     *space.Space
	m      measure.Measurer
	budget Budget
	g      *rng.RNG

	res          Result
	sinceImprove int
	stopped      bool

	idxs     []int64
	vals     []float64
	feats    [][]float64    // sp.FeaturesAt(idxs[i]), filled in by Features
	visited  map[int64]bool // built from idxs by visitedSet on first use
	annealer anneal.Scratch
}

func NewSession(name string, task workload.Task, sp *space.Space, m measure.Measurer,
	budget Budget, g *rng.RNG) (*Session, error) {
	if err := budget.validate(); err != nil {
		return nil, err
	}
	s := &Session{task: task, sp: sp, m: m, budget: budget, g: g}
	s.res.TunerName = name
	s.res.TaskName = task.Name()
	s.res.BestIndex = -1
	return s, nil
}

// Remaining returns how many measurements may still run (capped at want).
// Both budget axes cap the batch: MaxMeasurements directly, and
// MaxGPUSeconds through the observed mean cost per measurement — without
// the latter a session bounded only by GPU seconds would run a full-size
// final batch and overshoot the budget by an arbitrary amount.
func (s *Session) Remaining(want int) int {
	if s.budget.MaxMeasurements > 0 {
		left := s.budget.MaxMeasurements - s.res.Measurements
		if left < want {
			want = left
		}
	}
	if s.budget.MaxGPUSeconds > 0 && s.res.Measurements > 0 {
		leftSec := s.budget.MaxGPUSeconds - s.res.GPUSeconds
		if leftSec <= 0 {
			want = 0
		} else if meanCost := s.res.GPUSeconds / float64(s.res.Measurements); meanCost > 0 {
			fit := int(leftSec / meanCost)
			if fit < 1 {
				// Budget not yet exhausted: allow one measurement so the
				// session converges onto the bound instead of stalling
				// just under it; worst-case overshoot is one measurement.
				fit = 1
			}
			if fit < want {
				want = fit
			}
		}
	}
	if want < 0 {
		want = 0
	}
	return want
}

// Done reports whether the session must stop.
func (s *Session) Done() bool {
	if s.stopped {
		return true
	}
	if s.budget.MaxMeasurements > 0 && s.res.Measurements >= s.budget.MaxMeasurements {
		return true
	}
	if s.budget.MaxGPUSeconds > 0 && s.res.GPUSeconds >= s.budget.MaxGPUSeconds {
		return true
	}
	return false
}

// MeasureBatch runs one batch, appends it to the history (the first
// batch's values also become Result.InitialBatch), and applies the
// convergence rule. It returns the raw results (aligned with idxs).
func (s *Session) MeasureBatch(idxs []int64) ([]gpusim.Result, error) {
	idxs = idxs[:s.Remaining(len(idxs))]
	if len(idxs) == 0 {
		s.stopped = true
		return nil, nil
	}
	results, err := s.m.MeasureBatch(s.task, s.sp, idxs)
	if err != nil {
		return nil, err
	}
	prevBest := s.res.BestGFLOPS
	for i, r := range results {
		s.res.Measurements++
		s.res.GPUSeconds += r.CostSec
		s.idxs = append(s.idxs, idxs[i])
		if s.visited != nil {
			s.visited[idxs[i]] = true
		}
		if !r.Valid {
			s.res.Invalid++
			s.vals = append(s.vals, 0)
			continue
		}
		s.vals = append(s.vals, r.GFLOPS)
		if r.GFLOPS > s.res.BestGFLOPS {
			s.res.BestGFLOPS = r.GFLOPS
			s.res.BestTimeMS = r.TimeMS
			s.res.BestIndex = idxs[i]
		}
	}
	if s.res.InitialBatch == nil && len(s.vals) > 0 {
		s.res.InitialBatch = append([]float64(nil), s.vals...)
	}
	s.res.Steps++
	s.res.History = append(s.res.History, StepRecord{
		Step:         s.res.Steps,
		Measurements: s.res.Measurements,
		BestGFLOPS:   s.res.BestGFLOPS,
		GPUSeconds:   s.res.GPUSeconds,
	})
	if s.budget.Patience > 0 {
		improved := s.res.BestGFLOPS > prevBest*(1+s.budget.Epsilon)
		if prevBest == 0 && s.res.BestGFLOPS > 0 {
			improved = true
		}
		if improved {
			s.sinceImprove = 0
		} else {
			s.sinceImprove++
			if s.sinceImprove >= s.budget.Patience {
				s.stopped = true
				s.res.Converged = true
			}
		}
	}
	return results, nil
}

// Indices returns every measured index, in measurement order.
func (s *Session) Indices() []int64 { return s.idxs }

// Values returns each measurement's GFLOPS (0 if invalid), aligned with
// Indices.
func (s *Session) Values() []float64 { return s.vals }

// Features returns each measured configuration's features, aligned with
// Indices. They are computed on the first call that needs them, so a
// tuner without a surrogate never pays for them.
func (s *Session) Features() [][]float64 {
	for _, idx := range s.idxs[len(s.feats):] {
		s.feats = append(s.feats, s.sp.FeaturesAt(idx))
	}
	return s.feats
}

// Visited reports whether idx was measured or reserved with Visit.
func (s *Session) Visited(idx int64) bool { return s.visitedSet()[idx] }

// Visit reserves idx before it is measured, so the proposer that picked
// it does not pick it again; a reserved index may never be measured.
func (s *Session) Visit(idx int64) { s.visitedSet()[idx] = true }

// visitedSet returns the visited set, built from the history on first
// use, so a tuner that never asks (Random) never pays for it.
func (s *Session) visitedSet() map[int64]bool {
	if s.visited == nil {
		s.visited = make(map[int64]bool, len(s.idxs))
		for _, idx := range s.idxs {
			s.visited[idx] = true
		}
	}
	return s.visited
}

// Anneal runs anneal.Run in the session's workspace.
func (s *Session) Anneal(p anneal.Problem, cfg anneal.Config, topK int, g *rng.RNG) ([]anneal.Result, error) {
	return s.annealer.Run(p, cfg, topK, g)
}

// Finish returns a copy of the session result, materializing TopMeasured
// from the history: each config's best valid value, best first, ties by
// index (a total order, so the result is deterministic).
func (s *Session) Finish() *Result {
	out := s.res
	top := make([]Measured, 0, len(s.vals))
	for i, v := range s.vals {
		if v > 0 {
			top = append(top, Measured{Index: s.idxs[i], GFLOPS: v})
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].GFLOPS != top[j].GFLOPS { //glint:ignore floateq -- total-order tiebreak for sorting, not a tolerance check
			return top[i].GFLOPS > top[j].GFLOPS
		}
		return top[i].Index < top[j].Index
	})
	// A config's first entry in this order is its best; drop the rest.
	kept := top[:0]
	for _, m := range top {
		if len(kept) == TopMeasuredCap {
			break
		}
		if !slices.ContainsFunc(kept, func(k Measured) bool { return k.Index == m.Index }) {
			kept = append(kept, m)
		}
	}
	out.TopMeasured = kept
	return &out
}

// Snapshot returns a copy of the current session result without ending
// the session.
func (s *Session) Snapshot() Result { return s.res }

// Normalize rescales values into [0, 1] by their maximum (all zeros when
// none is positive): surrogates learn the shape of a task's throughput,
// not its scale.
func Normalize(v []float64) []float64 {
	mx := 0.0
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	out := make([]float64, len(v))
	if mx == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / mx
	}
	return out
}

// SqrtPos is the standard deviation of a posterior variance, 0 where
// rounding left the variance non-positive.
func SqrtPos(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
