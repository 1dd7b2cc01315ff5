package gp

import (
	"fmt"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// The reference implementations below are frozen copies of the GP
// posterior and grid fit as they were before the lane engine: column-
// strided At() solves, one allocation per intermediate. The engine must
// reproduce their fit and mean bit for bit. Its variance skips the
// backward solve, so it equals predictForward's exactly and the frozen
// two-solve variance to within rounding.

// refCov is the Matérn-5/2 covariance as the kernel computed it before it
// took a squared distance.
func refCov(k Matern52, a, b []float64) float64 {
	r := math.Sqrt(mat.Dist2(a, b)) / k.LengthScale
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

func refCholesky(a *mat.Matrix) (*mat.Matrix, error) {
	n := a.Rows()
	l := mat.New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, mat.ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// refForward solves L·y = b.
func refForward(l *mat.Matrix, b []float64) []float64 {
	n := l.Rows()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

func refSolveCholesky(l *mat.Matrix, b []float64) []float64 {
	n := l.Rows()
	y := refForward(l, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

func refGram(k Matern52, x [][]float64, noise float64) *mat.Matrix {
	n := len(x)
	out := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := refCov(k, x[i], x[j])
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
		out.Set(i, i, out.At(i, i)+noise)
	}
	return out
}

// refModel is the state a reference fit produces.
type refModel struct {
	kernel Matern52
	x      [][]float64
	yMean  float64
	alpha  []float64
	chol   *mat.Matrix
}

func refFit(k Matern52, noise float64, x [][]float64, y []float64) (*refModel, error) {
	yMean := mat.Mean(y)
	centered := make([]float64, len(y))
	for i, v := range y {
		centered[i] = v - yMean
	}
	chol, err := refCholesky(refGram(k, x, noise))
	if err != nil {
		jitter := noise
		for attempt := 0; attempt < 8; attempt++ {
			jitter *= 10
			if chol, err = refCholesky(refGram(k, x, jitter)); err == nil {
				break
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return &refModel{kernel: k, x: x, yMean: yMean, alpha: refSolveCholesky(chol, centered), chol: chol}, nil
}

func (m *refModel) lml(y []float64) float64 {
	centered := make([]float64, len(y))
	for i, v := range y {
		centered[i] = v - m.yMean
	}
	fit := -0.5 * mat.Dot(centered, m.alpha)
	complexity := -0.5 * mat.LogDetCholesky(m.chol)
	norm := -0.5 * float64(len(y)) * math.Log(2*math.Pi)
	return fit + complexity + norm
}

func (m *refModel) kernelVector(q []float64) []float64 {
	ks := make([]float64, len(m.x))
	for i, xi := range m.x {
		ks[i] = refCov(m.kernel, q, xi)
	}
	return ks
}

// predict is the two-solve posterior: variance k(q,q) − k·K⁻¹k.
func (m *refModel) predict(q []float64) (mean, variance float64) {
	ks := m.kernelVector(q)
	mean = m.yMean + mat.Dot(ks, m.alpha)
	v := refSolveCholesky(m.chol, ks)
	variance = refCov(m.kernel, q, q) - mat.Dot(ks, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// predictForward is the forward-only posterior: variance k(q,q) − y·y
// with L·y = k.
func (m *refModel) predictForward(q []float64) (mean, variance float64) {
	ks := m.kernelVector(q)
	mean = m.yMean + mat.Dot(ks, m.alpha)
	y := refForward(m.chol, ks)
	variance = refCov(m.kernel, q, q) - mat.Dot(y, y)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// checkPosterior requires (mean, variance) at q to equal the forward-only
// reference bit for bit, and the variance to be within 1e-9·k(q,q) of the
// frozen two-solve variance.
func checkPosterior(t *testing.T, where string, want *refModel, q []float64, mean, variance float64) {
	t.Helper()
	wm, wv := want.predictForward(q)
	if math.Float64bits(mean) != math.Float64bits(wm) || math.Float64bits(variance) != math.Float64bits(wv) {
		t.Fatalf("%s: (%v, %v) want (%v, %v)", where, mean, variance, wm, wv)
	}
	_, v2 := want.predict(q)
	if tol := 1e-9 * refCov(want.kernel, q, q); math.Abs(variance-v2) > tol {
		t.Fatalf("%s: variance %v differs from the two-solve %v by more than %v", where, variance, v2, tol)
	}
}

func refFitWithGridSearch(x [][]float64, y []float64, noise float64) (*refModel, error) {
	var best *refModel
	bestLML := math.Inf(-1)
	for _, v := range []float64{0.1, 1, 10} {
		for _, s := range []float64{0.1, 0.3, 1, 3, 10} {
			m, err := refFit(Matern52{Variance: v, LengthScale: s}, noise, x, y)
			if err != nil {
				continue
			}
			if lml := m.lml(y); lml > bestLML {
				bestLML = lml
				best = m
			}
		}
	}
	if best == nil {
		return refFit(Matern52{Variance: 1, LengthScale: 1}, 1e-2, x, y)
	}
	return best, nil
}

// oracleProblem draws a training set shaped like the tuning loop's: rows
// of log2 features, normalized targets, and duplicated rows now and then
// (re-measured configurations), which forces the jitter path.
func oracleProblem(g *rng.RNG, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		if i > 0 && g.Intn(8) == 0 {
			x[i] = x[g.Intn(i)]
		} else {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = float64(g.Intn(7))
			}
		}
		y[i] = g.Float64()
	}
	return x, y
}

// TestGridFitMatchesReference pins FitWithGridSearch's chosen
// hyperparameters, factor and weights to the reference grid search bit
// for bit, and its posterior, one lane and four, as checkPosterior does,
// with the assembly kernel and with the Go passes.
func TestGridFitMatchesReference(t *testing.T) {
	forEachKernel(t, testGridFitMatchesReference)
}

func testGridFitMatchesReference(t *testing.T) {
	var s Scratch
	for seed := int64(1); seed <= 12; seed++ {
		g := rng.New(seed)
		n := 1 + g.Intn(150)
		x, y := oracleProblem(g, n, 1+g.Intn(20))
		got, err := FitWithGridSearch(x, y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refFitWithGridSearch(x, y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kernel != want.kernel {
			t.Fatalf("seed %d: kernel %v want %v", seed, got.Kernel, want.kernel)
		}
		if !bitsEqual(got.chol.RawData(), want.chol.RawData()) || !bitsEqual(got.alpha, want.alpha) {
			t.Fatalf("seed %d: factor or weights differ from the reference", seed)
		}
		for i := 0; i < 20; i++ {
			q := make([][]float64, Lanes)
			for l := range q {
				q[l] = make([]float64, len(x[0]))
				for j := range q[l] {
					q[l][j] = float64(g.Intn(7))
				}
			}
			gm, gv := got.Predict(q[0])
			checkPosterior(t, fmt.Sprintf("seed %d: Predict", seed), want, q[0], gm, gv)
			var mean, variance [Lanes]float64
			got.PredictLanes(q, mean[:], variance[:], &s)
			for l := range q {
				checkPosterior(t, fmt.Sprintf("seed %d: lane %d", seed, l), want, q[l], mean[l], variance[l])
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPredictLanesMatchesReference runs every lane count over random
// fitted GPs and checks each lane's posterior as checkPosterior does,
// with one Scratch reused across sizes and calls, with the assembly
// kernel and with the Go passes.
func TestPredictLanesMatchesReference(t *testing.T) {
	forEachKernel(t, testPredictLanesMatchesReference)
}

func testPredictLanesMatchesReference(t *testing.T) {
	var s Scratch
	for seed := int64(1); seed <= 12; seed++ {
		g := rng.New(100 + seed)
		n := 1 + g.Intn(150)
		d := 1 + g.Intn(20)
		x, y := oracleProblem(g, n, d)
		r, err := FitWithGridSearch(x, y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refFitWithGridSearch(x, y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for lanes := 1; lanes <= Lanes; lanes++ {
			for rep := 0; rep < 5; rep++ {
				q := make([][]float64, lanes)
				for l := range q {
					q[l] = make([]float64, d)
					for j := range q[l] {
						q[l][j] = float64(g.Intn(7)) + g.Float64()
					}
				}
				var mean, variance [Lanes]float64
				r.PredictLanes(q, mean[:], variance[:], &s)
				for l := range q {
					checkPosterior(t, fmt.Sprintf("seed %d, %d lanes, lane %d", seed, lanes, l),
						want, q[l], mean[l], variance[l])
				}
			}
		}
	}
}

// TestPredictLanesUnfitted covers the prior path: mean 0, variance k(q,q).
func TestPredictLanesUnfitted(t *testing.T) {
	r := NewRegressor(Matern52{Variance: 3, LengthScale: 1}, 1e-6)
	q := [][]float64{{1}, {2, 3}, {4}}
	var mean, variance [Lanes]float64
	r.PredictLanes(q, mean[:], variance[:], &Scratch{})
	for l := range q {
		if mean[l] != 0 || math.Float64bits(variance[l]) != math.Float64bits(refCov(r.Kernel, q[l], q[l])) {
			t.Fatalf("lane %d: (%v, %v) want (0, k(q,q))", l, mean[l], variance[l])
		}
	}
}

// TestPredictLanesAllocatesNothing pins the hot-path contract: once the
// scratch has grown, a posterior evaluation allocates nothing.
func TestPredictLanesAllocatesNothing(t *testing.T) {
	g := rng.New(3)
	x, y := oracleProblem(g, 144, 20)
	r, err := FitWithGridSearch(x, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	var mean, variance [Lanes]float64
	for _, lanes := range []int{1, Lanes} {
		q := x[:lanes]
		if allocs := testing.AllocsPerRun(20, func() {
			r.PredictLanes(q, mean[:], variance[:], &s)
		}); allocs != 0 {
			t.Fatalf("%d lanes: %v allocs per call, want 0", lanes, allocs)
		}
	}
}

// TestPredictLanesRejectsWideQuery checks that a fitted regressor panics
// when any lane is wider than the training rows, rather than reading only
// the first d features of it.
func TestPredictLanesRejectsWideQuery(t *testing.T) {
	g := rng.New(4)
	x, y := oracleProblem(g, 12, 3)
	r, err := FitWithGridSearch(x, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	var mean, variance [Lanes]float64
	for lanes := 1; lanes <= Lanes; lanes++ {
		for wide := 0; wide < lanes; wide++ {
			q := make([][]float64, lanes)
			copy(q, x[:lanes])
			q[wide] = append(append([]float64(nil), x[wide]...), 0.5)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d lanes, lane %d wider than the training rows: no panic", lanes, wide)
					}
				}()
				r.PredictLanes(q, mean[:], variance[:], &s)
			}()
		}
	}
}
