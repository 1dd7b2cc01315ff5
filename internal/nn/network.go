package nn

import (
	"encoding/json"
	"fmt"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// Network is a feed-forward stack of layers.
type Network struct {
	Layers []Layer
}

// NewMLP builds a multilayer perceptron with the given layer widths
// (e.g. widths = [in, h1, h2, out]) and a hidden activation constructor.
// The output layer is linear.
func NewMLP(widths []int, hidden func() *Activation, g *rng.RNG) *Network {
	if len(widths) < 2 {
		panic("nn: NewMLP needs at least input and output widths")
	}
	net := &Network{}
	for i := 0; i < len(widths)-1; i++ {
		net.Layers = append(net.Layers, NewDense(widths[i], widths[i+1], g.Split(fmt.Sprintf("dense%d", i))))
		if i < len(widths)-2 {
			net.Layers = append(net.Layers, hidden())
		}
	}
	return net
}

// Forward runs a batch through all layers.
func (n *Network) Forward(x *mat.Matrix) *mat.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// InferBatch runs a batch through all layers without touching the
// training caches or workspaces, so it is safe to call from multiple
// goroutines on a frozen network. It computes exactly what Forward
// computes.
func (n *Network) InferBatch(x *mat.Matrix) *mat.Matrix {
	for _, l := range n.Layers {
		x = l.Infer(x)
	}
	return x
}

// Infer evaluates the network on a single feature vector. It is the
// concurrency-safe way to use a trained network: Forward and Backward
// write per-layer training state.
func (n *Network) Infer(x []float64) []float64 {
	out := n.InferBatch(mat.NewFromData(1, len(x), append([]float64(nil), x...)))
	return out.Row(0)
}

// Backward propagates ∂L/∂output back through all layers.
func (n *Network) Backward(grad *mat.Matrix) *mat.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// release drops every layer's training workspaces and cached batch, so a
// trained network holds only its parameters and gradients.
func (n *Network) release() {
	for _, l := range n.Layers {
		if r, ok := l.(interface{ release() }); ok {
			r.release()
		}
	}
}

// Params returns all parameter/gradient pairs in layer order.
func (n *Network) Params() []Param {
	out := make([]Param, 0, 2*len(n.Layers))
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.ScaleInPlace(0)
	}
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		r, c := p.Value.Dims()
		total += r * c
	}
	return total
}

// layerJSON is the serialized form of one layer.
type layerJSON struct {
	Kind string      `json:"kind"` // "dense" or activation name
	In   int         `json:"in,omitempty"`
	Out  int         `json:"out,omitempty"`
	W    [][]float64 `json:"w,omitempty"`
	B    []float64   `json:"b,omitempty"`
}

// MarshalJSON serializes the network architecture and weights.
func (n *Network) MarshalJSON() ([]byte, error) {
	var layers []layerJSON
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			lj := layerJSON{Kind: "dense", In: v.In, Out: v.Out, B: v.B.Row(0)}
			for i := 0; i < v.Out; i++ {
				lj.W = append(lj.W, v.W.Row(i))
			}
			layers = append(layers, lj)
		case *Activation:
			layers = append(layers, layerJSON{Kind: v.Name})
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	return json.Marshal(layers)
}

// UnmarshalJSON restores a network serialized by MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var layers []layerJSON
	if err := json.Unmarshal(data, &layers); err != nil {
		return err
	}
	n.Layers = nil
	for _, lj := range layers {
		switch lj.Kind {
		case "dense":
			d := &Dense{
				In: lj.In, Out: lj.Out,
				W:     mat.NewFromRows(lj.W),
				B:     mat.NewFromData(1, lj.Out, append([]float64(nil), lj.B...)),
				gradW: mat.New(lj.Out, lj.In),
				gradB: mat.New(1, lj.Out),
			}
			n.Layers = append(n.Layers, d)
		case "relu":
			n.Layers = append(n.Layers, ReLU())
		case "tanh":
			n.Layers = append(n.Layers, Tanh())
		case "sigmoid":
			n.Layers = append(n.Layers, Sigmoid())
		default:
			return fmt.Errorf("nn: unknown layer kind %q", lj.Kind)
		}
	}
	return nil
}
