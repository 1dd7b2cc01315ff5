// Package nn implements the small feed-forward neural networks Glimpse
// needs: the HyperNetwork-style prior distribution generator H (§3.1) and
// the meta-learned neural acquisition function (§3.2). It provides dense
// layers, standard activations, MSE / softmax-cross-entropy losses, SGD and
// Adam optimizers, and JSON serialization — all on top of internal/mat.
//
// Batches are row-major mat.Matrix values: one sample per row.
package nn

import (
	"fmt"
	"math"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// Layer is one differentiable stage of a network. Forward consumes a batch
// and caches whatever it needs; Backward consumes ∂L/∂output and returns
// ∂L/∂input, accumulating parameter gradients internally. Forward and
// Backward write into per-layer workspaces: their results alias layer
// state and are valid only until the layer's next call, Backward may
// overwrite the gradient it is given, and a layer must not be trained
// from two goroutines at once.
type Layer interface {
	Forward(x *mat.Matrix) *mat.Matrix
	Backward(grad *mat.Matrix) *mat.Matrix
	// Infer is Forward without caching state for Backward: it only reads
	// the layer's parameters and returns a fresh matrix, so concurrent
	// Infer calls are safe. It computes exactly what Forward computes.
	Infer(x *mat.Matrix) *mat.Matrix
	// Params returns parameter/gradient pairs for the optimizer;
	// activation layers return nil.
	Params() []Param
}

// Param couples a parameter matrix with its accumulated gradient.
type Param struct {
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// Dense is a fully connected layer: y = x·Wᵀ + b.
//
// Its kernels keep every sum in the order of mat.Mul's ikj loop — each
// output element adds its terms in increasing inner index from +0,
// skipping zero left-hand factors — so training is bit-identical to the
// x·W.T() and grad.T()·x products they replace; DESIGN.md §6 states the
// rule and the register-blocking forms it allows.
type Dense struct {
	In, Out int
	W       *mat.Matrix // Out×In
	B       *mat.Matrix // 1×Out

	// Training workspaces, allocated on first use and dropped by release:
	// the parameter gradients, and buffers sized by the batch.
	gradW, gradB *mat.Matrix
	lastX        *mat.Matrix
	wt, out, dx  mat.Matrix // Wᵀ, the output and the input gradient
	col          []float64  // one column of the upstream gradient
	acc          []float64  // one row of gradᵀ·x before it joins gradW
}

// NewDense builds a dense layer with Glorot-uniform initial weights.
func NewDense(in, out int, g *rng.RNG) *Dense {
	d := &Dense{In: in, Out: out, W: mat.New(out, in), B: mat.New(1, out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := 0; i < out; i++ {
		for j := 0; j < in; j++ {
			d.W.Set(i, j, (2*g.Float64()-1)*limit)
		}
	}
	return d
}

// Forward computes x·Wᵀ + b for a batch x (n×In) into the layer's
// output workspace: W is transposed into a workspace, each output row is
// sumRows of its input row over Wᵀ, and the bias is added last. Every
// element adds the same terms in the same order as denseForward.
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix {
	d.checkIn(x)
	d.lastX = x
	wd, td := d.W.RawData(), d.wt.Reuse(d.In, d.Out).RawData()
	for j := 0; j < d.Out; j++ {
		for k, w := range wd[j*d.In : (j+1)*d.In] {
			td[k*d.Out+j] = w
		}
	}
	out := d.out.Reuse(x.Rows(), d.Out)
	bd := d.B.RawRow(0)
	for i := 0; i < x.Rows(); i++ {
		oi := out.RawRow(i)
		sumRows(oi, x.RawRow(i), td)
		for j, b := range bd[:len(oi)] {
			oi[j] += b
		}
	}
	return out
}

// Infer computes x·Wᵀ + b into a fresh matrix without touching the
// training workspaces.
func (d *Dense) Infer(x *mat.Matrix) *mat.Matrix {
	d.checkIn(x)
	out := mat.New(x.Rows(), d.Out)
	denseForward(out, x, d.W, d.B)
	return out
}

func (d *Dense) checkIn(x *mat.Matrix) {
	if x.Cols() != d.In {
		panic(fmt.Sprintf("nn: Dense forward %d features, want %d", x.Cols(), d.In))
	}
}

// Backward accumulates ∂L/∂W = gradᵀ·x and ∂L/∂b and returns ∂L/∂x =
// grad·W in the layer's input-gradient workspace.
func (d *Dense) Backward(grad *mat.Matrix) *mat.Matrix {
	if d.lastX == nil {
		panic("nn: Dense backward before forward")
	}
	n := grad.Rows()
	if n != d.lastX.Rows() || grad.Cols() != d.Out {
		panic("nn: Dense backward gradient shape differs from its forward output")
	}
	if cap(d.col) < n {
		d.col = make([]float64, n)
	}
	if d.acc == nil {
		d.acc = make([]float64, d.In)
	}
	d.grads()
	col, acc, g := d.col[:n], d.acc, grad.RawData()
	xd := d.lastX.RawData()
	for j := 0; j < d.Out; j++ {
		for k := range col {
			col[k] = g[k*d.Out+j]
		}
		sumRows(acc, col, xd)
		gw := d.gradW.RawRow(j)
		for c, v := range acc {
			gw[c] += v
		}
	}
	gb := d.gradB.RawData()
	for k := 0; k < n; k++ {
		for j, v := range grad.RawRow(k) {
			gb[j] += v
		}
	}
	dx := d.dx.Reuse(n, d.In)
	wd := d.W.RawData()
	for k := 0; k < n; k++ {
		sumRows(dx.RawRow(k), grad.RawRow(k), wd)
	}
	return dx
}

// grads allocates the zeroed parameter gradients if release dropped
// them or none were made yet.
func (d *Dense) grads() {
	if d.gradW == nil {
		d.gradW, d.gradB = mat.New(d.Out, d.In), mat.New(1, d.Out)
	}
}

// release drops the training workspaces, gradients included, and the
// cached input, so the layer keeps only W and b.
func (d *Dense) release() {
	d.gradW, d.gradB = nil, nil
	d.lastX, d.wt, d.out, d.dx, d.col, d.acc = nil, mat.Matrix{}, mat.Matrix{}, mat.Matrix{}, nil, nil
}

// Params exposes the weights and bias to the optimizer, allocating their
// gradients on first use.
func (d *Dense) Params() []Param {
	d.grads()
	return []Param{{d.W, d.gradW}, {d.B, d.gradB}}
}

// denseForward sets out = x·Wᵀ + b. Element (i, j) sums x[i][k]·W[j][k]
// over k in order from +0, skipping x[i][k] == 0, then adds b[j] — the
// order of x.Mul(W.T()) followed by the bias add. Four output columns
// share one pass over x[i], each with its own accumulator.
func denseForward(out, x, w, b *mat.Matrix) {
	in, nOut := w.Cols(), w.Rows()
	wd, bd := w.RawData(), b.RawRow(0)
	for i := 0; i < x.Rows(); i++ {
		xi, oi := x.RawRow(i), out.RawRow(i)
		j := 0
		for ; j+4 <= nOut; j += 4 {
			w0 := wd[j*in : (j+1)*in][:len(xi)]
			w1 := wd[(j+1)*in : (j+2)*in][:len(xi)]
			w2 := wd[(j+2)*in : (j+3)*in][:len(xi)]
			w3 := wd[(j+3)*in : (j+4)*in][:len(xi)]
			var s0, s1, s2, s3 float64
			for k, a := range xi {
				if a == 0 {
					continue
				}
				s0 += a * w0[k]
				s1 += a * w1[k]
				s2 += a * w2[k]
				s3 += a * w3[k]
			}
			oi[j] = s0 + bd[j]
			oi[j+1] = s1 + bd[j+1]
			oi[j+2] = s2 + bd[j+2]
			oi[j+3] = s3 + bd[j+3]
		}
		for ; j < nOut; j++ {
			wj := wd[j*in : (j+1)*in][:len(xi)]
			var s float64
			for k, a := range xi {
				if a == 0 {
					continue
				}
				s += a * wj[k]
			}
			oi[j] = s + bd[j]
		}
	}
}

// sumRowsGo sets dst = Σ_t a[t]·src[t] over the rows src[t] of the
// row-major src (row width len(dst)), adding in increasing t from +0 and
// skipping a[t] == 0 — one output row of mat.Mul's ikj loop. Four rows
// are folded per pass over dst, the running value held in a register.
// It is the definition of sumRows and its fallback (simd.go).
func sumRowsGo(dst, a, src []float64) {
	w := len(dst)
	clear(dst)
	t := 0
	for {
		var rows [4][]float64
		var coef [4]float64
		m := 0
		for ; t < len(a) && m < 4; t++ {
			if a[t] != 0 {
				rows[m], coef[m] = src[t*w:(t+1)*w], a[t]
				m++
			}
		}
		if m < 4 {
			for r := 0; r < m; r++ {
				c0, r0 := coef[r], rows[r][:w]
				for c := range dst {
					dst[c] += c0 * r0[c]
				}
			}
			return
		}
		c0, c1, c2, c3 := coef[0], coef[1], coef[2], coef[3]
		r0, r1, r2, r3 := rows[0][:w], rows[1][:w], rows[2][:w], rows[3][:w]
		for c, v := range dst {
			v += c0 * r0[c]
			v += c1 * r1[c]
			v += c2 * r2[c]
			v += c3 * r3[c]
			dst[c] = v
		}
	}
}

// Activation is an elementwise nonlinearity with derivative computed from
// the cached forward output. Name selects it: "relu", "tanh" or
// "sigmoid", the kind a serialized network records.
type Activation struct {
	Name  string
	lastY *mat.Matrix
	out   mat.Matrix // Forward's workspace, dropped by release
}

// ReLU returns a rectified linear activation layer.
func ReLU() *Activation { return &Activation{Name: "relu"} }

// Tanh returns a hyperbolic tangent activation layer.
func Tanh() *Activation { return &Activation{Name: "tanh"} }

// Sigmoid returns a logistic activation layer.
func Sigmoid() *Activation { return &Activation{Name: "sigmoid"} }

// apply sets y[i] to the nonlinearity of x[i] for every i < len(y).
func (a *Activation) apply(y, x []float64) {
	x = x[:len(y)]
	switch a.Name {
	case "tanh":
		tanhRows(y, x)
	case "relu":
		for i, v := range x {
			y[i] = math.Max(0, v)
		}
	case "sigmoid":
		for i, v := range x {
			y[i] = 1 / (1 + math.Exp(-v))
		}
	default:
		panic("nn: unknown activation")
	}
}

// Forward applies the nonlinearity elementwise into the layer's output
// workspace.
func (a *Activation) Forward(x *mat.Matrix) *mat.Matrix {
	a.lastY = a.out.Reuse(x.Dims())
	a.apply(a.lastY.RawData(), x.RawData())
	return a.lastY
}

// Infer applies the nonlinearity into a fresh matrix without caching the
// output for Backward.
func (a *Activation) Infer(x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Dims())
	a.apply(y.RawData(), x.RawData())
	return y
}

// Backward scales the upstream gradient by the local derivative, in
// place, and returns it. The derivative is expressed in the output y:
// 1 − y² for tanh, y(1 − y) for the sigmoid, 1 or 0 for ReLU.
func (a *Activation) Backward(grad *mat.Matrix) *mat.Matrix {
	if a.lastY == nil {
		panic("nn: Activation backward before forward")
	}
	if grad.Rows() != a.lastY.Rows() || grad.Cols() != a.lastY.Cols() {
		panic("nn: Activation backward gradient shape differs from its forward output")
	}
	g := grad.RawData()
	ys := a.lastY.RawData()[:len(g)]
	switch a.Name {
	case "tanh":
		for i, y := range ys {
			g[i] *= 1 - y*y
		}
	case "relu":
		for i, y := range ys {
			d := 0.0
			if y > 0 {
				d = 1
			}
			g[i] *= d
		}
	case "sigmoid":
		for i, y := range ys {
			g[i] *= y * (1 - y)
		}
	default:
		panic("nn: unknown activation")
	}
	return grad
}

// release drops the output workspace and the cached output.
func (a *Activation) release() { a.lastY, a.out = nil, mat.Matrix{} }

// Params reports no trainable parameters.
func (a *Activation) Params() []Param { return nil }
