package core

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Toolkit bundles Glimpse's offline-trained artifacts: the Blueprint
// embedding, the prior generator H, and the meta-learned acquisition
// function. One toolkit is trained per target GPU (leave-target-out, the
// paper's transfer protocol) and reused across every task tuned on it.
type Toolkit struct {
	TargetName string
	Emb        *blueprint.Embedding
	Prior      *prior.Model
	Acq        *acq.Neural
}

// ToolkitConfig controls offline training. The zero value gives the
// defaults used throughout the experiment harness.
type ToolkitConfig struct {
	// BlueprintDim is the embedding size; 0 selects the Fig. 8 knee.
	BlueprintDim int
	// TrainGPUs overrides the training pool (default: full registry minus
	// the target).
	TrainGPUs []string
	// PriorTasks overrides the tasks H trains on (default: every task of
	// every model — the target GPU itself is never measured).
	PriorTasks []workload.Task
	// MetaTasks overrides the (smaller) task set used for acquisition
	// meta-training.
	MetaTasks []workload.Task
	// MetaGPUs caps the number of GPUs used for meta-training (default 4).
	MetaGPUs int

	Prior prior.TrainConfig
	Meta  acq.MetaConfig
}

// defaultMetaTaskRefs is a representative spread across kinds and shapes.
var defaultMetaTaskRefs = []struct {
	model string
	l     int
}{
	{workload.ResNet18, 5},
	{workload.ResNet18, 7},
	{workload.ResNet18, 14},
	{workload.AlexNet, 11},
}

// TrainToolkit trains all offline artifacts for a target GPU, which must
// exist in the registry. The target is excluded from every training pool.
// Parts another toolkit of this process already trained from the same
// inputs (the embedding, the acquisition function, a training GPU's prior
// targets) are reused, not retrained; the result is the same either way.
func TrainToolkit(target string, cfg ToolkitConfig, g *rng.RNG) (*Toolkit, error) {
	if _, err := hwspec.ByName(target); err != nil {
		return nil, err
	}
	dim := cfg.BlueprintDim
	if dim <= 0 {
		dim = blueprint.DefaultDim()
	}
	emb, ek, err := embedding(dim)
	if err != nil {
		return nil, err
	}

	var pool []hwspec.Spec
	if len(cfg.TrainGPUs) > 0 {
		for _, name := range cfg.TrainGPUs {
			if name == target {
				return nil, fmt.Errorf("core: target %q in training pool", target)
			}
			spec, err := hwspec.ByName(name)
			if err != nil {
				return nil, err
			}
			pool = append(pool, spec)
		}
	} else {
		pool = hwspec.TrainingPool(target)
	}

	priorTasks := cfg.PriorTasks
	if len(priorTasks) == 0 {
		for _, model := range workload.Models {
			priorTasks = append(priorTasks, workload.MustTasks(model)...)
		}
	}

	metaTasks := cfg.MetaTasks
	if len(metaTasks) == 0 {
		for _, ref := range defaultMetaTaskRefs {
			task, err := workload.TaskByIndex(ref.model, ref.l)
			if err != nil {
				return nil, err
			}
			metaTasks = append(metaTasks, task)
		}
	}
	metaGPUs := cfg.MetaGPUs
	if metaGPUs <= 0 {
		metaGPUs = 4
	}
	metaPool := pool
	if len(metaPool) > metaGPUs {
		// Spread the meta pool across the generations present.
		stride := len(metaPool) / metaGPUs
		var spread []hwspec.Spec
		for i := 0; i < metaGPUs; i++ {
			spread = append(spread, metaPool[i*stride])
		}
		metaPool = spread
	}

	// H and the acquisition function are independent and each draws from
	// its own Split stream, so they train concurrently (serially at one
	// worker) with byte-identical results. Both take the parts they share
	// with other toolkits from the memo (parts.go).
	var (
		priorModel *prior.Model
		neural     *acq.Neural
		errs       [2]error
	)
	parallel.For(0, 2, func(i int) {
		if i == 0 {
			priorModel, errs[0] = trainPrior(emb, pool, priorTasks, cfg.Prior, g.Split("prior"))
		} else {
			neural, errs[1] = metaTrain(emb, ek, metaPool, metaTasks, cfg.Meta, g.Split("meta"))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return &Toolkit{TargetName: target, Emb: emb, Prior: priorModel, Acq: neural}, nil
}

// Tuner instantiates a Glimpse tuner for the toolkit's target GPU.
func (tk *Toolkit) Tuner() *Glimpse {
	return &Glimpse{
		Emb:    tk.Emb,
		Prior:  tk.Prior,
		Acq:    tk.Acq,
		Target: hwspec.MustByName(tk.TargetName),
	}
}
