package prior

import (
	"fmt"
	"math"
	"sort"

	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
)

// Dist is a set of per-dimension prior distributions over one task's
// configuration space, parameterized by a flat vector in Layout order.
type Dist struct {
	Layout Layout
	Params []float64
}

// minSigma keeps the per-part Gaussians from collapsing.
const minSigma = 0.2

// NewDist validates and wraps a parameter vector.
func NewDist(layout Layout, params []float64) (*Dist, error) {
	if len(params) != layout.TotalLen {
		return nil, fmt.Errorf("prior: %d params, layout wants %d", len(params), layout.TotalLen)
	}
	return &Dist{Layout: layout, Params: params}, nil
}

// splitParams returns (μ, σ) for part p of split knob k.
func (d *Dist) splitParams(k, p int) (mu, sigma float64) {
	kl := d.Layout.Knobs[k]
	mu = d.Params[kl.Offset+2*p]
	sigma = math.Exp(d.Params[kl.Offset+2*p+1])
	if sigma < minSigma {
		sigma = minSigma
	}
	if sigma > 8 {
		sigma = 8
	}
	return mu, sigma
}

// KnobWeights returns an unnormalized weight for every local value of knob
// k in the concrete space: split entries get Π_p N(log2 f_p; μ_p, σ_p),
// categorical options get softplus'd weights.
func (d *Dist) KnobWeights(sp *space.Space, k int) []float64 {
	knob := &sp.Knobs[k]
	kl := d.Layout.Knobs[k]
	out := make([]float64, knob.Size())
	switch knob.Kind {
	case space.KindSplit:
		for i := range out {
			logp := 0.0
			for p, f := range knob.SplitValue(i) {
				mu, sigma := d.splitParams(k, p)
				z := (math.Log2(float64(f)) - mu) / sigma
				logp += -0.5*z*z - math.Log(sigma)
			}
			out[i] = math.Exp(logp)
		}
	case space.KindCategorical:
		for i := range out {
			w := d.Params[kl.Offset+i]
			// softplus keeps weights positive without exp overflow
			out[i] = math.Log1p(math.Exp(mat64Clamp(w, -30, 30)))
		}
	}
	return out
}

// LogProb returns the (unnormalized per-dimension, summed) log prior of a
// configuration: the score the acquisition function consumes.
func (d *Dist) LogProb(sp *space.Space, cfg space.Config) float64 {
	total := 0.0
	for k := range sp.Knobs {
		w := d.KnobWeights(sp, k)
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if sum <= 0 {
			continue
		}
		p := w[cfg[k]] / sum
		if p < 1e-12 {
			p = 1e-12
		}
		total += math.Log(p)
	}
	return total
}

// ArgmaxConfig returns the single highest-prior configuration: the
// per-dimension argmax (the paper enumerates combinations of argmax(f_k)).
func (d *Dist) ArgmaxConfig(sp *space.Space) space.Config {
	cfg := make(space.Config, len(sp.Knobs))
	for k := range sp.Knobs {
		w := d.KnobWeights(sp, k)
		best, bi := w[0], 0
		for i, v := range w[1:] {
			if v > best {
				best, bi = v, i+1
			}
		}
		cfg[k] = bi
	}
	return cfg
}

// Sample draws n distinct configuration indices: the argmax combination
// first, then per-dimension weighted draws (dimensions are independent
// under the prior), deduplicated. It may return fewer than n only if the
// space itself is smaller than n.
func (d *Dist) Sample(sp *space.Space, n int, g *rng.RNG) []int64 {
	if n <= 0 {
		return nil
	}
	weights := make([][]float64, len(sp.Knobs))
	for k := range sp.Knobs {
		weights[k] = d.KnobWeights(sp, k)
	}
	seen := make(map[int64]struct{}, n)
	out := make([]int64, 0, n)
	add := func(idx int64) {
		if _, dup := seen[idx]; !dup {
			seen[idx] = struct{}{}
			out = append(out, idx)
		}
	}
	add(sp.ToIndex(d.ArgmaxConfig(sp)))
	maxTries := 64 * n
	for try := 0; len(out) < n && try < maxTries; try++ {
		cfg := make(space.Config, len(sp.Knobs))
		for k := range sp.Knobs {
			cfg[k] = g.Categorical(weights[k])
		}
		add(sp.ToIndex(cfg))
	}
	// Fall back to uniform draws if the prior is too peaked to fill n.
	for try := 0; len(out) < n && try < maxTries; try++ {
		add(sp.RandomIndex(g))
	}
	if int64(len(out)) > sp.Size() {
		out = out[:sp.Size()]
	}
	return out
}

// Scorer precomputes per-knob log-probability tables for one concrete
// space so LogProb becomes an O(knobs) lookup — the form the simulated-
// annealing energy function needs (it evaluates thousands of candidates
// per batch).
type Scorer struct {
	sp   *space.Space
	logP [][]float64 // [knob][local index] → log normalized probability
}

// Scorer builds the cached scorer for sp.
func (d *Dist) Scorer(sp *space.Space) *Scorer {
	s := &Scorer{sp: sp, logP: make([][]float64, len(sp.Knobs))}
	for k := range sp.Knobs {
		w := d.KnobWeights(sp, k)
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		logs := make([]float64, len(w))
		for i, v := range w {
			p := 0.0
			if sum > 0 {
				p = v / sum
			}
			if p < 1e-12 {
				p = 1e-12
			}
			logs[i] = math.Log(p)
		}
		s.logP[k] = logs
	}
	return s
}

// LogProb returns the cached per-dimension log prior of a configuration;
// it matches Dist.LogProb exactly.
func (s *Scorer) LogProb(cfg space.Config) float64 {
	total := 0.0
	for k, li := range cfg {
		total += s.logP[k][li]
	}
	return total
}

// LogProbIndex is LogProb on a flat configuration index. It decodes the
// digits in place, summing in knob order as LogProb does, and allocates
// nothing.
func (s *Scorer) LogProbIndex(idx int64) float64 {
	s.sp.CheckIndex(idx)
	total := 0.0
	for k, logs := range s.logP {
		n := int64(s.sp.Knobs[k].Size())
		total += logs[idx%n]
		idx /= n
	}
	return total
}

// TopWeighted returns the m highest-prior-probability values of knob k
// (local indices), best first — used by diagnostics and the beam variant
// of initial sampling.
func (d *Dist) TopWeighted(sp *space.Space, k, m int) []int {
	w := d.KnobWeights(sp, k)
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	if m > len(idx) {
		m = len(idx)
	}
	return idx[:m]
}

func mat64Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
