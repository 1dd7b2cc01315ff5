package gp

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

func TestMatern52Properties(t *testing.T) {
	k := Matern52{Variance: 1, LengthScale: 1}
	a, b := []float64{0}, []float64{1}
	if got := k.Cov(mat.Dist2(a, a)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("k(x,x) = %g", got)
	}
	v := k.Cov(mat.Dist2(a, b))
	if v <= 0 || v >= 1 {
		t.Fatalf("k(0,1) = %g want in (0,1)", v)
	}
}

// Property: kernel matrices are positive semi-definite (Cholesky with
// jitter succeeds) for random point sets.
func TestGramPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := rng.New(seed)
		n := 2 + g.Intn(10)
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{g.NormFloat64(), g.NormFloat64()}
		}
		r := NewRegressor(Matern52{Variance: 1, LengthScale: 1}, 1e-6)
		return r.Fit(x, make([]float64, n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGPInterpolatesTrainingData(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 4, 9}
	r := NewRegressor(Matern52{Variance: 10, LengthScale: 1}, 1e-8)
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		m, v := r.Predict(xi)
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("mean at train point %v = %g want %g", xi, m, y[i])
		}
		if v > 1e-3 {
			t.Fatalf("variance at train point %v = %g want ≈0", xi, v)
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{0, 1}
	r := NewRegressor(Matern52{Variance: 1, LengthScale: 0.5}, 1e-6)
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	_, vNear := r.Predict([]float64{0.5})
	_, vFar := r.Predict([]float64{5})
	if vFar <= vNear {
		t.Fatalf("variance near %g !< far %g", vNear, vFar)
	}
}

func TestGPUnfittedPredictsPrior(t *testing.T) {
	r := NewRegressor(Matern52{Variance: 3, LengthScale: 1}, 1e-6)
	m, v := r.Predict([]float64{1})
	if m != 0 {
		t.Fatalf("prior mean = %g want 0", m)
	}
	if math.Abs(v-3) > 1e-12 {
		t.Fatalf("prior variance = %g want 3", v)
	}
}

func TestGPRejectsRaggedInput(t *testing.T) {
	r := NewRegressor(Matern52{Variance: 1, LengthScale: 1}, 1e-6)
	err := r.Fit([][]float64{{1, 2}, {3}}, []float64{0, 1})
	if err == nil {
		t.Fatal("ragged input accepted")
	}
	if err := r.Fit(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := r.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLogMarginalLikelihoodPrefersTrueScale(t *testing.T) {
	// Smooth data should prefer a longer lengthscale over a tiny one.
	g := rng.New(21)
	n := 30
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := float64(i) / 5
		x[i] = []float64{xi}
		y[i] = math.Sin(xi) + 0.01*g.NormFloat64()
	}
	long := NewRegressor(Matern52{Variance: 1, LengthScale: 1}, 1e-4)
	short := NewRegressor(Matern52{Variance: 1, LengthScale: 0.01}, 1e-4)
	if err := long.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := short.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if long.LogMarginalLikelihood(y) <= short.LogMarginalLikelihood(y) {
		t.Fatal("LML did not prefer the smoother model on smooth data")
	}
}

func TestFitWithGridSearch(t *testing.T) {
	g := rng.New(22)
	n := 40
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := g.Float64() * 6
		x[i] = []float64{xi}
		y[i] = math.Sin(xi)
	}
	r, err := FitWithGridSearch(x, y, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Should predict sin reasonably in-range.
	for _, q := range []float64{1, 2.5, 4} {
		m, _ := r.Predict([]float64{q})
		if math.Abs(m-math.Sin(q)) > 0.2 {
			t.Fatalf("grid-search GP at %g: %g want ≈%g", q, m, math.Sin(q))
		}
	}
}

func TestDeepRegressorTransfer(t *testing.T) {
	g := rng.New(23)
	// Source and target tasks share structure: y = f(w·x) with different w.
	gen := func(w float64, n int, r *rng.RNG) ([][]float64, []float64) {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := r.Float64()*2-1, r.Float64()*2-1
			x[i] = []float64{a, b}
			y[i] = math.Tanh(w * (a + b))
		}
		return x, y
	}
	srcX, srcY := gen(2.0, 300, g.Split("src"))
	d := NewDeepRegressor(2, 4, g.Split("net"))
	if err := d.PretrainSource(srcX, srcY, 120, g.Split("train")); err != nil {
		t.Fatal(err)
	}
	tgtX, tgtY := gen(2.2, 20, g.Split("tgt"))
	if err := d.FitTarget(tgtX, tgtY); err != nil {
		t.Fatal(err)
	}
	// Predictions on fresh target points should correlate with truth.
	testX, testY := gen(2.2, 50, g.Split("test"))
	errSum := 0.0
	for i, q := range testX {
		m, _, err := d.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		errSum += math.Abs(m - testY[i])
	}
	if mean := errSum / float64(len(testX)); mean > 0.25 {
		t.Fatalf("deep GP mean abs error = %g want < 0.25", mean)
	}
}

func TestDeepRegressorUseBeforeTrainErrors(t *testing.T) {
	g := rng.New(24)
	d := NewDeepRegressor(2, 3, g)
	if _, _, err := d.Predict([]float64{0, 0}); err == nil {
		t.Fatal("Predict before training did not error")
	}
	if err := d.FitTarget([][]float64{{0, 0}}, []float64{1}); err == nil {
		t.Fatal("FitTarget before pretraining did not error")
	}
}
