package acq

import (
	"fmt"
	"math"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/gp"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/nn"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// MetaConfig controls offline meta-training of the neural acquisition
// function across the training GPU pool (§3.2's RL-flavoured loop,
// simplified to supervised improvement regression: the teacher signal is
// the true measured improvement of each candidate, which the simulator
// makes cheap to obtain).
type MetaConfig struct {
	EpisodesPerPair int // BO episodes per (GPU, task), default 1
	Steps           int // BO steps per episode, default 8
	Batch           int // measurements per step, default 8
	Pool            int // candidate pool scored per step, default 48
	Epochs          int // training epochs over collected tuples, default 200
	Hidden          int // hidden width, default 32
}

func (c *MetaConfig) defaults() {
	if c.EpisodesPerPair <= 0 {
		c.EpisodesPerPair = 1
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.Pool <= 0 {
		c.Pool = 48
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
}

// WithDefaults returns c with every unset field at its default: the
// config MetaTrain actually runs.
func (c MetaConfig) WithDefaults() MetaConfig {
	c.defaults()
	return c
}

// MetaTrain runs BO episodes on the training pool, collecting
// (candidate features → realized improvement) tuples, and fits the neural
// acquisition function to them.
func MetaTrain(emb *blueprint.Embedding, gpus []hwspec.Spec, tasks []workload.Task,
	cfg MetaConfig, g *rng.RNG) (*Neural, error) {

	cfg.defaults()
	if len(gpus) == 0 || len(tasks) == 0 {
		return nil, fmt.Errorf("acq: empty training pool")
	}

	var feats [][]float64
	var targets []float64
	for _, spec := range gpus {
		dev := gpusim.NewDevice(spec)
		hw := emb.Embed(spec)
		for _, task := range tasks {
			for ep := 0; ep < cfg.EpisodesPerPair; ep++ {
				eg := g.Split(fmt.Sprintf("%s/%s/%d", spec.Name, task.Name(), ep))
				f, y, err := runEpisode(dev, hw, task, cfg, eg)
				if err != nil {
					return nil, err
				}
				feats = append(feats, f...)
				targets = append(targets, y...)
			}
		}
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("acq: meta-training collected no tuples")
	}

	x := mat.NewFromRows(feats)
	y := mat.New(len(targets), 1)
	for i, v := range targets {
		y.Set(i, 0, v)
	}
	net := nn.NewMLP([]int{FeatureDim(emb.Dim), cfg.Hidden, cfg.Hidden, 1}, nn.Tanh, g.Split("acq-net"))
	nn.Fit(net, x, y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: 64,
		Optimizer: nn.NewAdam(2e-3),
		ClipNorm:  10,
	}, g.Split("acq-fit"))
	return &Neural{Net: net, EmbDim: emb.Dim}, nil
}

// runEpisode plays one BO episode and emits supervised tuples: for every
// pool candidate at every step, its features under the current surrogate
// and the true normalized improvement measuring it would have realized.
func runEpisode(dev *gpusim.Device, hw []float64, task workload.Task,
	cfg MetaConfig, g *rng.RNG) ([][]float64, []float64, error) {

	sp, err := space.ForTask(task)
	if err != nil {
		return nil, nil, err
	}

	var xs [][]float64
	var ys []float64
	best := 0.0

	var feats [][]float64
	var targets []float64

	measure := func(idx int64) float64 {
		r := dev.MeasureIndex(task, sp, idx)
		if !r.Valid {
			return 0
		}
		return r.GFLOPS
	}

	// Seed with a random batch.
	for i := 0; i < cfg.Batch; i++ {
		idx := sp.RandomIndex(g)
		v := measure(idx)
		xs = append(xs, sp.FeaturesAt(idx))
		ys = append(ys, v)
		if v > best {
			best = v
		}
	}

	for step := 0; step < cfg.Steps; step++ {
		sur, err := gp.FitWithGridSearch(xs, ys, 1e-3)
		if err != nil {
			return nil, nil, err
		}
		progress := float64(step) / float64(cfg.Steps)
		type cand struct {
			idx   int64
			feats []float64
			truth float64
		}
		cands := make([]cand, 0, cfg.Pool)
		for i := 0; i < cfg.Pool; i++ {
			idx := sp.RandomIndex(g)
			mean, variance := sur.Predict(sp.FeaturesAt(idx))
			truth := measure(idx)
			s := Stats{Mean: mean, Std: sqrt(variance), Best: best, Progress: progress}
			f := Features(s, hw)
			// Dense teacher signal: the candidate's true value relative to
			// the incumbent (clamped). Ranking by predicted relative value
			// is what the tuning loop needs from the acquisition.
			relValue := truth / (best + 1)
			if relValue > 2 {
				relValue = 2
			}
			cands = append(cands, cand{idx, f, truth})
			feats = append(feats, f)
			targets = append(targets, relValue)
		}
		// Advance the episode by "measuring" the top-Batch candidates by
		// realized value (teacher forcing keeps episodes on good
		// trajectories without needing a trained acquisition yet).
		for i := 0; i < cfg.Batch && i < len(cands); i++ {
			bestI := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].truth > cands[bestI].truth {
					bestI = j
				}
			}
			cands[i], cands[bestI] = cands[bestI], cands[i]
			c := cands[i]
			xs = append(xs, sp.FeaturesAt(c.idx))
			ys = append(ys, c.truth)
			if c.truth > best {
				best = c.truth
			}
		}
	}
	return feats, targets, nil
}

// sqrt clamps tiny negative variance residue to zero.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
