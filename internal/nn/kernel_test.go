package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// refDense is the original Dense formulation, kept as the oracle for the
// fixed-order kernels: x·W.T() and grad.T()·x through mat.Mul, a fresh
// matrix per call.
type refDense struct {
	W, B, gradW, gradB, lastX *mat.Matrix
}

func (d *refDense) forward(x *mat.Matrix) *mat.Matrix {
	d.lastX = x
	out := x.Mul(d.W.T())
	for i := 0; i < out.Rows(); i++ {
		row := out.RawRow(i)
		for j := range row {
			row[j] += d.B.At(0, j)
		}
	}
	return out
}

func (d *refDense) backward(grad *mat.Matrix) *mat.Matrix {
	d.gradW.AddInPlace(grad.T().Mul(d.lastX))
	for i := 0; i < grad.Rows(); i++ {
		row := grad.RawRow(i)
		for j := range row {
			d.gradB.Set(0, j, d.gradB.At(0, j)+row[j])
		}
	}
	return grad.Mul(d.W)
}

// refActivation is the original Activation formulation (Apply/Hadamard).
type refActivation struct {
	a     *Activation
	lastY *mat.Matrix
}

func (r *refActivation) forward(x *mat.Matrix) *mat.Matrix {
	r.lastY = x.Apply(r.a.fn)
	return r.lastY
}

func (r *refActivation) backward(grad *mat.Matrix) *mat.Matrix {
	return grad.Hadamard(r.lastY.Apply(r.a.deriv))
}

// sparseMatrix draws an r×c matrix with about a quarter exact zeros (both
// signs), so the a == 0 skip is exercised on every path.
func sparseMatrix(g *rng.RNG, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.RawData() {
		switch u := g.Float64(); {
		case u < 0.2:
		case u < 0.25:
			m.RawData()[i] = math.Copysign(0, -1)
		default:
			m.RawData()[i] = g.NormFloat64()
		}
	}
	return m
}

func requireSameBits(t *testing.T, what string, got, want *mat.Matrix) {
	t.Helper()
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: dims %dx%d want %dx%d", what, gr, gc, wr, wc)
	}
	for i, w := range want.RawData() {
		if g := got.RawData()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %v (%#x) want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestDenseKernelsBitIdentical drives the fixed-order Dense kernels and
// the mat.Mul formulation through the same chained forward/backward/update
// steps over random shapes (widths off multiples of 4, batches 1…70,
// inputs and gradients with exact zeros) and requires every output,
// input gradient, ∂W and ∂b to agree bit for bit.
func TestDenseKernelsBitIdentical(t *testing.T) {
	g := rng.New(7)
	for trial := 0; trial < 60; trial++ {
		in, out := 1+g.Intn(13), 1+g.Intn(13)
		t.Run(fmt.Sprintf("%d:%dx%d", trial, in, out), func(t *testing.T) {
			d := NewDense(in, out, g.Split(fmt.Sprintf("w%d", trial)))
			ref := &refDense{W: d.W.Clone(), B: mat.New(1, out), gradW: mat.New(out, in), gradB: mat.New(1, out)}
			for j := range d.B.RawData() {
				d.B.RawData()[j] = g.NormFloat64()
			}
			copy(ref.B.RawData(), d.B.RawData())
			for step := 0; step < 4; step++ {
				n := 1 + g.Intn(70)
				x := sparseMatrix(g, n, in)
				requireSameBits(t, "forward", d.Forward(x), ref.forward(x))
				requireSameBits(t, "infer", d.Infer(x), ref.forward(x))
				grad := sparseMatrix(g, n, out)
				// Even steps accumulate onto the previous gradient, odd
				// steps start from a zeroed one, as Fit does.
				if step%2 == 1 {
					d.gradW.ScaleInPlace(0)
					d.gradB.ScaleInPlace(0)
					ref.gradW.ScaleInPlace(0)
					ref.gradB.ScaleInPlace(0)
				}
				requireSameBits(t, "dx", d.Backward(grad.Clone()), ref.backward(grad))
				requireSameBits(t, "gradW", d.gradW, ref.gradW)
				requireSameBits(t, "gradB", d.gradB, ref.gradB)
				d.W.AddScaledInPlace(-0.1, d.gradW)
				ref.W.AddScaledInPlace(-0.1, ref.gradW)
			}
		})
	}
}

// TestDenseKernelsSkipZeroFactors pins the a == 0 skip, which only shows
// with non-finite values: a skipped 0·Inf term leaves a sum finite where
// adding it would turn it into NaN.
func TestDenseKernelsSkipZeroFactors(t *testing.T) {
	g := rng.New(9)
	d := NewDense(5, 6, g)
	d.W.Set(2, 3, math.Inf(1))
	ref := &refDense{W: d.W.Clone(), B: d.B.Clone(), gradW: mat.New(6, 5), gradB: mat.New(1, 6)}
	x := sparseMatrix(g, 9, 5)
	grad := sparseMatrix(g, 9, 6)
	for i := 0; i < 9; i++ {
		x.Set(i, 3, 0)    // x·Wᵀ: every term through W[2][3] is skipped
		grad.Set(i, 2, 0) // grad·W: every term through W's row 2 is skipped
	}
	x.Set(4, 1, math.Inf(-1))
	for j := 0; j < 6; j++ {
		grad.Set(4, j, 0) // gradᵀ·x: every term through x[4][1] is skipped
	}
	requireSameBits(t, "forward", d.Forward(x), ref.forward(x))
	dx := d.Backward(grad.Clone())
	requireSameBits(t, "dx", dx, ref.backward(grad))
	requireSameBits(t, "gradW", d.gradW, ref.gradW)
	for _, m := range []*mat.Matrix{dx, d.gradW, d.gradB} {
		for _, v := range m.RawData() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("skipped 0·Inf term leaked into %v", m)
			}
		}
	}
}

// TestActivationKernelsBitIdentical does the same for the workspace
// Forward and in-place Backward of every activation.
func TestActivationKernelsBitIdentical(t *testing.T) {
	g := rng.New(8)
	for _, mk := range []func() *Activation{ReLU, Tanh, Sigmoid} {
		a := mk()
		ref := &refActivation{a: mk()}
		t.Run(a.Name, func(t *testing.T) {
			for step := 0; step < 20; step++ {
				n, w := 1+g.Intn(70), 1+g.Intn(13)
				x := sparseMatrix(g, n, w)
				requireSameBits(t, "forward", a.Forward(x), ref.forward(x))
				requireSameBits(t, "infer", a.Infer(x), ref.forward(x))
				grad := sparseMatrix(g, n, w)
				requireSameBits(t, "backward", a.Backward(grad.Clone()), ref.backward(grad))
			}
		})
	}
}

// fitFixture is a regression problem shaped like one of the toolkit's
// nets: prior heads (22 → 48 → 48 → 41, batch 16) or the acquisition
// function (16 → 32 → 32 → 1, batch 64).
func fitFixture(widths []int, n int, seed int64) (*Network, *mat.Matrix, *mat.Matrix) {
	g := rng.New(seed)
	net := NewMLP(widths, Tanh, g.Split("net"))
	x := sparseMatrix(g, n, widths[0])
	y := sparseMatrix(g, n, widths[len(widths)-1])
	return net, x, y
}

var (
	priorShape = []int{22, 48, 48, 41}
	acqShape   = []int{16, 32, 32, 1}
)

// TestFitStepAllocatesNothing asserts the training step's contract: once
// the first batch has sized the workspaces, a step — full batches and a
// smaller final one, with gradient clipping and Adam — allocates nothing.
func TestFitStepAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		widths []int
		batch  int
	}{{"prior", priorShape, 16}, {"acq", acqShape, 64}} {
		t.Run(tc.name, func(t *testing.T) {
			n := 3*tc.batch + 5
			net, x, y := fitFixture(tc.widths, n, 1)
			st := newTrainStep(net, x, y, TrainConfig{Optimizer: NewAdam(1e-3), Loss: MSELoss, ClipNorm: 1e-3})
			perm := rng.New(2).Perm(n)
			epoch := func() {
				for start := 0; start < n; start += tc.batch {
					st.step(perm[start:min(start+tc.batch, n)])
				}
			}
			epoch()
			if allocs := testing.AllocsPerRun(20, epoch); allocs != 0 {
				t.Fatalf("%v allocations per epoch after the first batch, want 0", allocs)
			}
		})
	}
}

// TestFitReleasesWorkspaces checks that a trained network keeps no
// training workspace or cached batch.
func TestFitReleasesWorkspaces(t *testing.T) {
	net, x, y := fitFixture(acqShape, 40, 3)
	Fit(net, x, y, TrainConfig{Epochs: 2, BatchSize: 16}, rng.New(4))
	for i, l := range net.Layers {
		switch v := l.(type) {
		case *Dense:
			if v.lastX != nil || v.out.RawData() != nil || v.dx.RawData() != nil || v.col != nil || v.acc != nil {
				t.Fatalf("layer %d (dense) kept a workspace after Fit", i)
			}
		case *Activation:
			if v.lastY != nil || v.out.RawData() != nil {
				t.Fatalf("layer %d (%s) kept a workspace after Fit", i, v.Name)
			}
		}
	}
}

// BenchmarkFitStep times one optimizer step (forward, MSE loss,
// backward, clipping, Adam) on the two net shapes toolkit training fits.
func BenchmarkFitStep(b *testing.B) {
	for _, tc := range []struct {
		name   string
		widths []int
		batch  int
	}{{"prior", priorShape, 16}, {"acq", acqShape, 64}} {
		b.Run(tc.name, func(b *testing.B) {
			net, x, y := fitFixture(tc.widths, tc.batch, 1)
			st := newTrainStep(net, x, y, TrainConfig{Optimizer: NewAdam(2e-3), Loss: MSELoss, ClipNorm: 10})
			idx := rng.New(2).Perm(tc.batch)
			st.step(idx)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.step(idx)
			}
		})
	}
}
