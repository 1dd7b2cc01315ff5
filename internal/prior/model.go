package prior

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/nn"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Model is the trained prior distribution generator H: one hypernetwork
// head per template kind, sharing the (layer spec, Blueprint) input.
type Model struct {
	Emb  *blueprint.Embedding
	Nets map[workload.Kind]*nn.Network
}

// TrainConfig controls offline training of H.
type TrainConfig struct {
	Dataset DatasetConfig
	Epochs  int // default 300
	Hidden  int // hidden width, default 48
}

func (c *TrainConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 300
	}
	if c.Hidden <= 0 {
		c.Hidden = 48
	}
}

// Train collects the offline dataset on the training GPU pool and fits one
// hypernetwork per template kind. The target GPU must not be in gpus —
// that is the whole point of the Blueprint transfer setting.
func Train(emb *blueprint.Embedding, gpus []hwspec.Spec, tasks []workload.Task,
	cfg TrainConfig, g *rng.RNG) (*Model, error) {

	cfg.defaults()
	examples, err := BuildDataset(gpus, emb, tasks, cfg.Dataset, g.Split("dataset"))
	if err != nil {
		return nil, err
	}
	byKind := map[workload.Kind][]Example{}
	for _, ex := range examples {
		byKind[ex.Kind] = append(byKind[ex.Kind], ex)
	}

	// The heads are independent and each draws from its own Split stream,
	// so they train concurrently with byte-identical results.
	kinds := sortedKinds(byKind)
	nets := make([]*nn.Network, len(kinds))
	errs := make([]error, len(kinds))
	inDim := InputDim(emb.Dim)
	parallel.For(0, len(kinds), func(i int) {
		nets[i], errs[i] = trainHead(kinds[i], byKind[kinds[i]], inDim, cfg, g)
	})
	m := &Model{Emb: emb, Nets: make(map[workload.Kind]*nn.Network, len(kinds))}
	for i, kind := range kinds {
		if errs[i] != nil {
			return nil, errs[i]
		}
		m.Nets[kind] = nets[i]
	}
	return m, nil
}

// trainHead fits the hypernetwork head for one template kind.
func trainHead(kind workload.Kind, exs []Example, inDim int, cfg TrainConfig, g *rng.RNG) (*nn.Network, error) {
	layout := MustLayoutFor(kind)
	x := mat.New(len(exs), inDim)
	y := mat.New(len(exs), layout.TotalLen)
	for i, ex := range exs {
		if len(ex.Input) != inDim {
			return nil, fmt.Errorf("prior: example input dim %d want %d", len(ex.Input), inDim)
		}
		x.SetRow(i, ex.Input)
		y.SetRow(i, ex.Target)
	}
	net := nn.NewMLP([]int{inDim, cfg.Hidden, cfg.Hidden, layout.TotalLen}, nn.Tanh,
		g.Split(fmt.Sprintf("net/%v", kind)))
	nn.Fit(net, x, y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: 16,
		Optimizer: nn.NewAdam(2e-3),
		ClipNorm:  10,
	}, g.Split(fmt.Sprintf("fit/%v", kind)))
	return net, nil
}

// Distributions runs H for one task on one (possibly unseen) target GPU,
// returning the per-dimension prior distributions.
func (m *Model) Distributions(task workload.Task, spec hwspec.Spec) (*Dist, error) {
	net, ok := m.Nets[task.Kind]
	if !ok {
		return nil, fmt.Errorf("prior: model has no head for kind %v", task.Kind)
	}
	layout, err := LayoutFor(task.Kind)
	if err != nil {
		return nil, err
	}
	params := net.Infer(TaskInput(task, m.Emb.Embed(spec)))
	return NewDist(layout, params)
}
