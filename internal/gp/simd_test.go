package gp

import (
	"math"
	"os"
	"strings"
	"testing"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// forEachKernel runs f with the Go passes and, where the CPU runs it,
// with the assembly kernel.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	on := useKernel
	t.Run("go", func(t *testing.T) {
		useKernel = false
		defer func() { useKernel = on }()
		f(t)
	})
	if !on {
		t.Log("the assembly kernel does not run on this CPU; checked the Go passes only")
		return
	}
	t.Run("kernel", f)
}

// goCov is covFunc over Matern52.Cov: the behaviour the kernel must have.
func goCov(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) int {
	k := Matern52{Variance: v, LengthScale: ls}
	for l, d := range d2 {
		out[l] = k.Cov(d)
	}
	return 0
}

// expInRange reports whether Cov's exp argument at d2 is one the kernel
// evaluates itself rather than report.
func expInRange(k Matern52, d2 float64) bool {
	x := -(math.Sqrt(5) * (math.Sqrt(d2) / k.LengthScale))
	return x >= -700 && x <= 700
}

// TestCovKernelMatchesCov requires the kernel's covariance to equal
// Matern52.Cov bit for bit on a million random squared distances and on
// the edge cases (zero, subnormals, arguments past the range guard, +Inf,
// NaN, negative), and to report exactly the lanes whose exp argument is
// outside [−700, 700] or NaN.
func TestCovKernelMatchesCov(t *testing.T) {
	if !useKernel {
		t.Skip("the assembly kernel does not run on this CPU")
	}
	d2s := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 2.2250738585072009e-308,
		math.SmallestNonzeroFloat64 * 3, 1e-300, 1, 4, 1e4, 1e5, 1e6, 1e300,
		math.MaxFloat64, math.Inf(1), math.NaN(), -1, math.Inf(-1)}
	kernels := []Matern52{{0.1, 0.1}, {1, 0.3}, {10, 1}, {1, 3}, {0.1, 10}, {2.5, 0.7}}
	g := rng.New(42)
	for len(d2s) < 1<<20 {
		switch g.Intn(3) {
		case 0: // log-uniform over the whole finite range that matters
			d2s = append(d2s, math.Exp(g.Float64()*60-30))
		case 1: // the tuning loop's range: sums of squared log2 gaps
			d2s = append(d2s, g.Float64()*400)
		default: // around one length scale's range guard
			ls := kernels[g.Intn(len(kernels))].LengthScale
			guard := 700 * ls / math.Sqrt(5)
			d2s = append(d2s, guard*guard*(1+(g.Float64()-0.5)*1e-3))
		}
	}
	var in, got [Lanes]float64
	for i := 0; i < len(d2s); i += Lanes {
		k := kernels[(i/Lanes)%len(kernels)]
		copy(in[:], d2s[i:])
		bad := covAsm(&in, k.Variance, k.LengthScale, &got)
		for l, d := range in {
			if flagged := bad&(1<<l) != 0; flagged == expInRange(k, d) {
				t.Fatalf("%v at d2 %v: kernel reported %v, exp argument in range %v", k, d, flagged, expInRange(k, d))
			}
			if bad&(1<<l) == 0 && math.Float64bits(got[l]) != math.Float64bits(k.Cov(d)) {
				t.Fatalf("%v at d2 %v: kernel %v, Cov %v", k, d, got[l], k.Cov(d))
			}
		}
	}
}

// TestKernelProbe checks that the init probe accepts a covariance equal
// to Cov and rejects one that is a bit off, or that evaluates nothing.
func TestKernelProbe(t *testing.T) {
	if !kernelMatches(goCov) {
		t.Fatal("probe rejected Matern52.Cov itself")
	}
	mismatched := func(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) int {
		bad := goCov(d2, v, ls, out)
		for l, d := range d2 {
			if d > 1 && d < 2 {
				out[l] = math.Nextafter(out[l], 0)
			}
		}
		return bad
	}
	if kernelMatches(mismatched) {
		t.Fatal("probe accepted a kernel one ulp off Cov")
	}
	if kernelMatches(func(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) int { return 1<<Lanes - 1 }) {
		t.Fatal("probe accepted a kernel that reports every lane out of range")
	}
	if kernelSupported() && !kernelMatches(covAsm) && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Fatal("the CPU runs the assembly kernel but the probe rejects it")
	}
}

// TestPredictLanesOutOfRange runs queries far enough from a short
// length-scale GP that some lanes' exp argument leaves the kernel's
// range: the call must fall back and still match the reference.
func TestPredictLanesOutOfRange(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		g := rng.New(7)
		x, y := oracleProblem(g, 30, 4)
		k := Matern52{Variance: 1, LengthScale: 0.1}
		r := NewRegressor(k, 1e-3)
		if err := r.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		want, err := refFit(k, 1e-3, x, y)
		if err != nil {
			t.Fatal(err)
		}
		var s Scratch
		far := 0
		for rep := 0; rep < 50; rep++ {
			q := make([][]float64, 1+rep%Lanes)
			for l := range q {
				q[l] = make([]float64, 4)
				for j := range q[l] {
					q[l][j] = float64(g.Intn(7)) + float64(g.Intn(2))*float64(40+g.Intn(20))
				}
			}
			var mean, variance [Lanes]float64
			r.PredictLanes(q, mean[:], variance[:], &s)
			for l := range q {
				for _, xi := range x {
					if !expInRange(k, mat.Dist2(q[l], xi)) {
						far++
						break
					}
				}
				checkPosterior(t, "far query", want, q[l], mean[l], variance[l])
			}
		}
		if far == 0 {
			t.Fatal("no query left the kernel's exp range; the test covers nothing")
		}
	})
}

// TestPredictLanesShortTrainingRow replaces a training row with a shorter
// one after the fit, through the caller's slice the regressor shares: a
// four-lane call must panic, as the Go pass does on its bounds check,
// rather than let the kernel read past the row.
func TestPredictLanesShortTrainingRow(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		x, y := oracleProblem(rng.New(5), 12, 3)
		r, err := FitWithGridSearch(x, y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		q := [][]float64{{1, 2, 3}, {2, 3, 4}}
		x[7] = []float64{1}
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on a training row shorter than the queries")
			}
		}()
		var mean, variance [Lanes]float64
		r.PredictLanes(q, mean[:], variance[:], &Scratch{})
	})
}
