package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/cpufeat"
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

// forEachKernel runs f with the Go code and, where the CPU runs it, with
// the assembly kernels.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	on := useKernel
	t.Run("go", func(t *testing.T) {
		useKernel = false
		defer func() { useKernel = on }()
		f(t)
	})
	if !on {
		t.Log("the assembly kernels do not run on this CPU; checked the Go code only")
		return
	}
	t.Run("kernel", f)
}

// toolkitWidths are the layer widths of the toolkit's nets (see
// fitFixture).
var toolkitWidths = []int{16, 22, 32, 41, 48}

// drawWidth draws a layer width: one of the toolkit's a third of the
// time, else 1…70, so the four-wide ymm bodies run up to 17 times and
// every remainder of four shows up.
func drawWidth(g *rng.RNG) int {
	if g.Intn(3) == 0 {
		return toolkitWidths[g.Intn(len(toolkitWidths))]
	}
	return 1 + g.Intn(70)
}

// TestDenseKernelsBitIdentical drives the fixed-order Dense kernels and
// the mat.Mul formulation through the same chained forward/backward/update
// steps over random shapes (widths 1…13 in the first 60 trials, then
// drawWidth's, batches 1…70, inputs and gradients with exact zeros) and
// requires every output, input gradient, ∂W and ∂b to agree bit for bit.
func TestDenseKernelsBitIdentical(t *testing.T) {
	g := rng.New(7)
	for trial := 0; trial < 120; trial++ {
		in, out := 1+g.Intn(13), 1+g.Intn(13)
		if trial >= 60 {
			in, out = drawWidth(g), drawWidth(g)
		}
		t.Run(fmt.Sprintf("%d:%dx%d", trial, in, out), func(t *testing.T) {
			w := NewDense(in, out, g.Split(fmt.Sprintf("w%d", trial))).W
			b := mat.New(1, out)
			for j := range b.RawData() {
				b.RawData()[j] = g.NormFloat64()
			}
			var xs, grads []*mat.Matrix
			for step := 0; step < 4; step++ {
				n := 1 + g.Intn(70)
				xs = append(xs, sparseMatrix(g, n, in))
				grads = append(grads, sparseMatrix(g, n, out))
			}
			forEachKernel(t, func(t *testing.T) {
				d := &Dense{In: in, Out: out, W: w.Clone(), B: b.Clone(), gradW: mat.New(out, in), gradB: mat.New(1, out)}
				ref := &refDense{W: w.Clone(), B: b.Clone(), gradW: mat.New(out, in), gradB: mat.New(1, out)}
				for step, x := range xs {
					requireSameBits(t, "forward", d.Forward(x), ref.forward(x))
					requireSameBits(t, "infer", d.Infer(x), ref.forward(x))
					// Even steps accumulate onto the previous gradient, odd
					// steps start from a zeroed one, as Fit does.
					if step%2 == 1 {
						d.gradW.ScaleInPlace(0)
						d.gradB.ScaleInPlace(0)
						ref.gradW.ScaleInPlace(0)
						ref.gradB.ScaleInPlace(0)
					}
					requireSameBits(t, "dx", d.Backward(grads[step].Clone()), ref.backward(grads[step]))
					requireSameBits(t, "gradW", d.gradW, ref.gradW)
					requireSameBits(t, "gradB", d.gradB, ref.gradB)
					d.W.AddScaledInPlace(-0.1, d.gradW)
					ref.W.AddScaledInPlace(-0.1, ref.gradW)
				}
			})
		})
	}
}

// TestSumRowsSkipsOnlyZeros checks sumRows against one row of mat.Mul's
// ikj loop with coefficients that are NaN (compares unequal to zero, so
// it must be added) and −0 (compares equal, so it must be skipped), over
// widths 0…70 and the toolkit's. Every row whose coefficient is ±0 holds
// an Inf, so a zero that was not skipped turns its column into NaN.
func TestSumRowsSkipsOnlyZeros(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		g := rng.New(11)
		widths := append([]int{0}, toolkitWidths...)
		for len(widths) < 80 {
			widths = append(widths, drawWidth(g))
		}
		for _, w := range widths {
			n := 1 + g.Intn(40)
			a := sparseMatrix(g, 1, n).RawData()
			src := make([]float64, n*w)
			for i := range src {
				src[i] = g.NormFloat64()
			}
			for r, c := range a {
				if c == 0 && w > 0 {
					src[r*w+g.Intn(w)] = math.Inf(1 - 2*g.Intn(2))
				}
			}
			nan := g.Intn(3) == 0
			if nan {
				a[g.Intn(n)] = math.NaN()
			}
			want := make([]float64, w)
			for r, c := range a {
				if c == 0 {
					continue
				}
				for j, v := range src[r*w : (r+1)*w] {
					want[j] += c * v
				}
			}
			got := make([]float64, w)
			for i := range got {
				got[i] = 42 // sumRows must clear what was there
			}
			sumRows(got, a, src)
			for j, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Fatalf("width %d column %d = %v (%#x) want %v (%#x)", w, j, v, math.Float64bits(v), want[j], math.Float64bits(want[j]))
				}
				if math.IsNaN(v) != nan {
					t.Fatalf("width %d column %d = %v with a NaN coefficient %v", w, j, v, nan)
				}
			}
		}
	})
}

// refAdamStep is the original Adam update loop, kept as the oracle for
// adamStep.
func refAdamStep(o *Adam, val, grad, m, v []float64) {
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for j, g := range grad {
		mNew := o.Beta1*m[j] + (1-o.Beta1)*g
		vNew := o.Beta2*v[j] + (1-o.Beta2)*g*g
		m[j], v[j] = mNew, vNew
		update := o.LR * (mNew / bc1) / (math.Sqrt(vNew/bc2) + o.Eps)
		val[j] -= update
	}
}

// TestAdamMatchesReference runs Adam.Step and the original update loop
// side by side over ten steps on parameters of random lengths (1…70 and
// the toolkit's weight and bias sizes), gradients with exact zeros, and
// requires values and both moments to agree bit for bit.
func TestAdamMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		g := rng.New(12)
		for trial := 0; trial < 20; trial++ {
			var params []Param
			for k := 0; k < 4; k++ {
				r, c := 1, drawWidth(g)
				if k%2 == 0 {
					r = drawWidth(g)
				}
				params = append(params, Param{Value: sparseMatrix(g, r, c), Grad: mat.New(r, c)})
			}
			ref := make([]Param, len(params))
			for i, p := range params {
				ref[i] = Param{Value: p.Value.Clone(), Grad: p.Grad}
			}
			o, refO := NewAdam(1e-3*float64(1+trial)), NewAdam(1e-3*float64(1+trial))
			refM, refV := make([]*mat.Matrix, len(params)), make([]*mat.Matrix, len(params))
			for i, p := range params {
				refM[i], refV[i] = mat.New(p.Value.Dims()), mat.New(p.Value.Dims())
			}
			for step := 0; step < 10; step++ {
				for _, p := range params {
					copy(p.Grad.RawData(), sparseMatrix(g, p.Grad.Rows(), p.Grad.Cols()).RawData())
				}
				o.Step(params)
				refO.t++
				for i, p := range ref {
					refAdamStep(refO, p.Value.RawData(), p.Grad.RawData(), refM[i].RawData(), refV[i].RawData())
				}
				for i := range params {
					what := fmt.Sprintf("trial %d step %d param %d", trial, step, i)
					requireSameBits(t, what+" value", params[i].Value, ref[i].Value)
					requireSameBits(t, what+" m", o.m[i], refM[i])
					requireSameBits(t, what+" v", o.v[i], refV[i])
				}
			}
		}
	})
}

// TestKernelProbe checks that the init probe accepts the Go code itself
// and rejects a sumRows or an Adam step one ulp off.
func TestKernelProbe(t *testing.T) {
	if !kernelMatches(sumRowsGo, adamGo) {
		t.Fatal("probe rejected the Go code itself")
	}
	offSum := func(dst, a, src []float64) {
		sumRowsGo(dst, a, src)
		if len(dst) == 7 {
			dst[5] = math.Nextafter(dst[5], math.Inf(1))
		}
	}
	if kernelMatches(offSum, adamGo) {
		t.Fatal("probe accepted a sumRows one ulp off")
	}
	offAdam := func(val, grad, m, v []float64, c *adamCoef) {
		adamGo(val, grad, m, v, c)
		if len(val) == 6 {
			v[2] = math.Nextafter(v[2], 0)
		}
	}
	if kernelMatches(sumRowsGo, offAdam) {
		t.Fatal("probe accepted an Adam step one ulp off")
	}
	if cpufeat.AVX2() && !useKernel {
		t.Fatal("the CPU has AVX2 but the probe rejects the assembly kernels")
	}
}

// TestDenseKernelsSkipZeroFactors pins the a == 0 skip, which only shows
// with non-finite values: a skipped 0·Inf term leaves a sum finite where
// adding it would turn it into NaN.
func TestDenseKernelsSkipZeroFactors(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
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
	})
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
			forEachKernel(t, func(t *testing.T) {
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
			if v.lastX != nil || v.wt.RawData() != nil || v.out.RawData() != nil || v.dx.RawData() != nil || v.col != nil || v.acc != nil {
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
