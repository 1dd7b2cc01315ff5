package prior

import (
	"fmt"
	"math"
	"sort"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Example is one supervised pair for training H: the task/hardware
// conditioning input and the target distribution parameters fitted from
// the best simulated measurements.
type Example struct {
	Kind   workload.Kind
	Input  []float64
	Target []float64
}

// TaskInput builds H's conditioning vector: the log-scaled layer
// specification concatenated with the hardware Blueprint.
func TaskInput(task workload.Task, emb []float64) []float64 {
	spec := task.SpecVector()
	out := make([]float64, 0, len(spec)+len(emb))
	for _, v := range spec {
		out = append(out, math.Log2(1+v))
	}
	return append(out, emb...)
}

// InputDim returns the input width of H for a given Blueprint dimension.
func InputDim(embDim int) int { return workload.SpecVectorLen + embDim }

// DatasetConfig controls offline dataset collection.
type DatasetConfig struct {
	// SamplesPerTask is how many random configurations are measured per
	// (GPU, task) pair. Default 200.
	SamplesPerTask int
	// TopK is how many of the best valid measurements define the target
	// distribution. Default 24.
	TopK int
}

func (c *DatasetConfig) defaults() {
	if c.SamplesPerTask <= 0 {
		c.SamplesPerTask = 200
	}
	if c.TopK <= 0 {
		c.TopK = 24
	}
}

// WithDefaults returns c with every unset field at its default: the
// config GPUTargets actually runs.
func (c DatasetConfig) WithDefaults() DatasetConfig {
	c.defaults()
	return c
}

// GPUTargets measures random configurations of every task on one
// training GPU (its share of the TenSet-like corpus [19]) and distills
// each (GPU, task) pair into the target distribution parameters of one
// training example for H. Entry i is nil when task i had too few valid
// measurements. g is the dataset stream: task i draws from
// g.Split(spec.Name+"/"+tasks[i].Name()), so the result depends only on
// the spec, the tasks, the defaulted cfg and g's seed.
func GPUTargets(spec hwspec.Spec, tasks []workload.Task, cfg DatasetConfig, g *rng.RNG) ([][]float64, error) {
	cfg.defaults()
	dev := gpusim.NewDevice(spec)
	out := make([][]float64, len(tasks))
	for i, task := range tasks {
		sp, err := space.ForTask(task)
		if err != nil {
			return nil, err
		}
		layout, err := LayoutFor(task.Kind)
		if err != nil {
			return nil, err
		}
		if err := layout.CheckSpace(sp); err != nil {
			return nil, err
		}
		if target, ok := fitTarget(dev, task, sp, layout, cfg, g.Split(spec.Name+"/"+task.Name())); ok {
			out[i] = target
		}
	}
	return out, nil
}

// Examples assembles H's training examples, GPU by GPU in gpus order and
// task by task within a GPU, from each GPU's targets (GPUTargets' result
// for that spec and tasks), skipping pairs without a target. The targets
// are shared, not copied.
func Examples(gpus []hwspec.Spec, emb *blueprint.Embedding, tasks []workload.Task,
	targets func(spec hwspec.Spec) ([][]float64, error)) ([]Example, error) {

	var out []Example
	for _, spec := range gpus {
		ts, err := targets(spec)
		if err != nil {
			return nil, err
		}
		bp := emb.Embed(spec)
		for i, task := range tasks {
			if ts[i] == nil {
				continue // no valid measurements for this pair
			}
			out = append(out, Example{
				Kind:   task.Kind,
				Input:  TaskInput(task, bp),
				Target: ts[i],
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("prior: dataset collection produced no examples")
	}
	return out, nil
}

// fitTarget measures random configs and fits the layout's distribution
// parameters to the top performers.
func fitTarget(dev *gpusim.Device, task workload.Task, sp *space.Space,
	layout Layout, cfg DatasetConfig, g *rng.RNG) ([]float64, bool) {

	type scored struct {
		cfg    space.Config
		gflops float64
	}
	var valid []scored
	for i := 0; i < cfg.SamplesPerTask; i++ {
		c := sp.FromIndex(sp.RandomIndex(g))
		if r := dev.Measure(task, sp, c); r.Valid {
			valid = append(valid, scored{c, r.GFLOPS})
		}
	}
	if len(valid) < 4 {
		return nil, false
	}
	sort.Slice(valid, func(a, b int) bool { return valid[a].gflops > valid[b].gflops })
	top := valid
	if len(top) > cfg.TopK {
		top = top[:cfg.TopK]
	}

	params := make([]float64, layout.TotalLen)
	for k, kl := range layout.Knobs {
		knob := &sp.Knobs[k]
		switch kl.Kind {
		case space.KindSplit:
			for p := 0; p < kl.Parts; p++ {
				var logs []float64
				for _, s := range top {
					f := knob.SplitValue(s.cfg[k])[p]
					logs = append(logs, math.Log2(float64(f)))
				}
				mu := meanOf(logs)
				sigma := stdOf(logs, mu)
				if sigma < 0.25 {
					sigma = 0.25
				}
				params[kl.Offset+2*p] = mu
				params[kl.Offset+2*p+1] = math.Log(sigma)
			}
		case space.KindCategorical:
			counts := make([]float64, kl.Options)
			for _, s := range top {
				counts[s.cfg[k]]++
			}
			for o := 0; o < kl.Options; o++ {
				freq := (counts[o] + 0.5) / (float64(len(top)) + 0.5*float64(kl.Options))
				// Inverse softplus so KnobWeights recovers ≈freq.
				params[kl.Offset+o] = math.Log(math.Expm1(mat64Clamp(freq, 1e-4, 30)))
			}
		}
	}
	return params, true
}

func meanOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func stdOf(v []float64, mean float64) float64 {
	s := 0.0
	for _, x := range v {
		d := x - mean
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}
