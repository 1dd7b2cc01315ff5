package nn

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

func TestDenseForwardShape(t *testing.T) {
	g := rng.New(1)
	d := NewDense(3, 2, g)
	x := mat.New(5, 3)
	y := d.Forward(x)
	if y.Rows() != 5 || y.Cols() != 2 {
		t.Fatalf("out dims %dx%d want 5x2", y.Rows(), y.Cols())
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d := &Dense{In: 2, Out: 1,
		W: mat.NewFromRows([][]float64{{2, 3}}), B: mat.NewFromData(1, 1, []float64{1}),
		gradW: mat.New(1, 2), gradB: mat.New(1, 1)}
	y := d.Forward(mat.NewFromRows([][]float64{{1, 1}, {2, 0}}))
	if y.At(0, 0) != 6 || y.At(1, 0) != 5 {
		t.Fatalf("forward = %v", y)
	}
}

// numericalGradCheck verifies backprop gradients against finite differences
// on a 2-layer MLP with MSE loss.
func TestBackpropNumericalGradient(t *testing.T) {
	g := rng.New(2)
	net := NewMLP([]int{3, 4, 2}, Tanh, g)
	x := mat.NewFromRows([][]float64{{0.5, -0.3, 0.8}, {0.1, 0.9, -0.2}})
	y := mat.NewFromRows([][]float64{{1, 0}, {0, 1}})

	net.ZeroGrad()
	pred := net.Forward(x)
	grad := mat.New(pred.Dims())
	MSELoss(pred, y, grad)
	net.Backward(grad)

	const eps = 1e-6
	for pi, p := range net.Params() {
		r, c := p.Value.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				orig := p.Value.At(i, j)
				p.Value.Set(i, j, orig+eps)
				lp := MSELoss(net.Forward(x), y, grad)
				p.Value.Set(i, j, orig-eps)
				lm := MSELoss(net.Forward(x), y, grad)
				p.Value.Set(i, j, orig)
				numGrad := (lp - lm) / (2 * eps)
				anaGrad := p.Grad.At(i, j)
				if math.Abs(numGrad-anaGrad) > 1e-5*(1+math.Abs(numGrad)) {
					t.Fatalf("param %d (%d,%d): analytic %g vs numeric %g", pi, i, j, anaGrad, numGrad)
				}
			}
		}
	}
}

func TestFitLearnsXOR(t *testing.T) {
	g := rng.New(3)
	net := NewMLP([]int{2, 8, 1}, Tanh, g)
	x := mat.NewFromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := mat.NewFromRows([][]float64{{0}, {1}, {1}, {0}})
	loss := Fit(net, x, y, TrainConfig{Epochs: 2000, Optimizer: NewAdam(0.01)}, g)
	if loss > 0.01 {
		t.Fatalf("XOR final loss = %g want < 0.01", loss)
	}
	for i := 0; i < 4; i++ {
		pred := net.Infer(x.Row(i))[0]
		if math.Abs(pred-y.At(i, 0)) > 0.2 {
			t.Fatalf("XOR pred[%d] = %g want %g", i, pred, y.At(i, 0))
		}
	}
}

func TestFitLearnsRegression(t *testing.T) {
	// y = 2a - 3b + 1, learnable by a linear model.
	g := rng.New(4)
	n := 200
	x := mat.New(n, 2)
	y := mat.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := g.NormFloat64(), g.NormFloat64()
		x.SetRow(i, []float64{a, b})
		y.Set(i, 0, 2*a-3*b+1)
	}
	net := NewMLP([]int{2, 1}, ReLU, g) // single linear layer
	loss := Fit(net, x, y, TrainConfig{Epochs: 300, BatchSize: 32, Optimizer: NewAdam(0.05)}, g)
	if loss > 1e-3 {
		t.Fatalf("regression loss = %g", loss)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	logits := mat.NewFromRows([][]float64{{1, 2, 3}, {1000, 1000, 1000}, {-500, 0, 500}})
	p := Softmax(logits)
	for i := 0; i < p.Rows(); i++ {
		sum := 0.0
		for _, v := range p.RawRow(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", p.RawRow(i))
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestCrossEntropyGradientDirection(t *testing.T) {
	logits := mat.NewFromRows([][]float64{{2, 0, 0}})
	target := mat.NewFromRows([][]float64{{0, 1, 0}})
	grad := mat.New(logits.Dims())
	loss := CrossEntropyLoss(logits, target, grad)
	if loss <= 0 {
		t.Fatalf("loss = %g want > 0", loss)
	}
	// Gradient should push logit 1 up (negative grad) and logit 0 down.
	if grad.At(0, 1) >= 0 {
		t.Fatalf("grad for target class = %g want < 0", grad.At(0, 1))
	}
	if grad.At(0, 0) <= 0 {
		t.Fatalf("grad for wrong class = %g want > 0", grad.At(0, 0))
	}
}

func TestKLDivergence(t *testing.T) {
	p := mat.NewFromRows([][]float64{{0.5, 0.5}})
	if got := KLDivergence(p, p); math.Abs(got) > 1e-12 {
		t.Fatalf("KL(p‖p) = %g want 0", got)
	}
	q := mat.NewFromRows([][]float64{{0.9, 0.1}})
	if got := KLDivergence(p, q); got <= 0 {
		t.Fatalf("KL(p‖q) = %g want > 0", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := rng.New(5)
	net := NewMLP([]int{3, 5, 2}, ReLU, g)
	in := []float64{0.1, 0.2, 0.3}
	want := net.Infer(in)

	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var restored Network
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	got := restored.Infer(in)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("restored pred %v want %v", got, want)
		}
	}
	if restored.NumParams() != net.NumParams() {
		t.Fatalf("param count %d want %d", restored.NumParams(), net.NumParams())
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	var net Network
	if err := json.Unmarshal([]byte(`[{"kind":"conv9000"}]`), &net); err == nil {
		t.Fatal("unknown layer kind accepted")
	}
}

func TestClipGradients(t *testing.T) {
	gmat := mat.NewFromData(1, 2, []float64{3, 4}) // norm 5
	params := []Param{{Value: mat.New(1, 2), Grad: gmat}}
	ClipGradients(params, 1)
	norm := math.Hypot(gmat.At(0, 0), gmat.At(0, 1))
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm = %g want 1", norm)
	}
	// Under the cap: unchanged.
	ClipGradients(params, 10)
	norm2 := math.Hypot(gmat.At(0, 0), gmat.At(0, 1))
	if math.Abs(norm2-1) > 1e-12 {
		t.Fatalf("norm changed under cap: %g", norm2)
	}
}

func TestSGDMomentumMoves(t *testing.T) {
	v := mat.NewFromData(1, 1, []float64{1})
	grad := mat.NewFromData(1, 1, []float64{1})
	params := []Param{{Value: v, Grad: grad}}
	opt := NewSGD(0.1, 0.9)
	opt.Step(params)
	if v.At(0, 0) >= 1 {
		t.Fatalf("SGD did not descend: %g", v.At(0, 0))
	}
	first := 1 - v.At(0, 0)
	opt.Step(params)
	second := first + v.At(0, 0) // step size of second update
	_ = second
	// With momentum the second step should be larger than the first.
	stepTwo := (1 - first) - v.At(0, 0)
	if stepTwo <= first {
		t.Fatalf("momentum not accelerating: first %g second %g", first, stepTwo)
	}
}

func TestNumParams(t *testing.T) {
	g := rng.New(6)
	net := NewMLP([]int{3, 4, 2}, ReLU, g)
	// dense(3→4): 12+4, dense(4→2): 8+2 ⇒ 26.
	if got := net.NumParams(); got != 26 {
		t.Fatalf("NumParams = %d want 26", got)
	}
}

// TestGradientsAreTrainingWorkspaces checks that a built, trained or
// loaded network holds no gradient buffers, and that Params and Backward
// allocate them zeroed on first use.
func TestGradientsAreTrainingWorkspaces(t *testing.T) {
	noGrads := func(stage string, net *Network) {
		t.Helper()
		for i, l := range net.Layers {
			if d, ok := l.(*Dense); ok && (d.gradW != nil || d.gradB != nil) {
				t.Fatalf("%s: layer %d holds gradients", stage, i)
			}
		}
	}
	g := rng.New(5)
	net := NewMLP([]int{3, 4, 2}, Tanh, g)
	noGrads("NewMLP", net)

	x := mat.NewFromRows([][]float64{{0.5, -0.3, 0.8}, {0.1, 0.9, -0.2}, {0.4, 0, 0.3}})
	y := mat.NewFromRows([][]float64{{1, 0}, {0, 1}, {0.5, 0.5}})
	Fit(net, x, y, TrainConfig{Epochs: 3, BatchSize: 2}, g.Split("fit"))
	noGrads("Fit", net)

	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var restored Network
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	noGrads("UnmarshalJSON", &restored)
	if restored.NumParams() != 26 {
		t.Fatalf("NumParams = %d want 26", restored.NumParams())
	}
	noGrads("NumParams", &restored)

	for i, p := range restored.Params() {
		for _, v := range p.Grad.RawData() {
			if v != 0 {
				t.Fatalf("param %d: fresh gradient holds %g", i, v)
			}
		}
	}
	d := NewDense(3, 2, g)
	d.Forward(x)
	d.Backward(mat.New(3, 2))
	if d.gradW == nil || d.gradB == nil {
		t.Fatal("Backward did not allocate the gradients")
	}
}
