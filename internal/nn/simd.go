package nn

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/cpufeat"
)

// Kernel selection. sumRows (every Dense product of the training step:
// the forward pass over Wᵀ, ∂W and ∂x), the Adam update and the tanh
// activation have two implementations that give the same bits: the Go
// code, which is the definition and runs everywhere, and an amd64
// assembly kernel (simd_amd64.s) that repeats it operation for
// operation. Init probes run the kernels against the Go code and keep
// them only if every probed value matches bit for bit.
//
// The kernels have two gates. sumRows and Adam need AVX2 and fuse
// nothing. tanh also needs FMA: its exp repeats math.Exp's FMA path, so
// it equals math.Tanh only while math.Exp takes that path, and its probe
// turns it off when it does not (GODEBUG=cpu.fma=off, for example).

// useKernel reports whether the training step runs the sumRows and Adam
// kernels. Tests set it to false to run the Go code.
var useKernel = cpufeat.AVX2() && kernelMatches(sumRowsAsm, adamAsm)

// useTanhKernel reports whether tanhRows runs the tanh kernel. Tests set
// it to false to run math.Tanh.
var useTanhKernel = cpufeat.AVX2() && cpufeat.FMA() && tanhMatches(tanhAsm)

// sumRows sets dst = Σ_t a[t]·src[t] exactly as sumRowsGo defines it.
func sumRows(dst, a, src []float64) {
	if !useKernel {
		sumRowsGo(dst, a, src)
		return
	}
	if len(src) < len(a)*len(dst) {
		panic("nn: sumRows source holds fewer rows than coefficients")
	}
	sumRowsAsm(dst, a, src)
}

// adamStep applies one Adam update to a parameter's values exactly as
// adamGo defines it.
func adamStep(val, grad, m, v []float64, c *adamCoef) {
	grad, m, v = grad[:len(val)], m[:len(val)], v[:len(val)]
	if useKernel {
		adamAsm(val, grad, m, v, c)
		return
	}
	adamGo(val, grad, m, v, c)
}

// kernelMatches reports whether sum and adam equal sumRowsGo and adamGo
// bit for bit on probe data: row widths 0–9, coefficient vectors that
// mix zeros of both signs and NaN, and Adam updates over the same
// lengths. The probe takes a few microseconds.
func kernelMatches(sum func(dst, a, src []float64), adam func(val, grad, m, v []float64, c *adamCoef)) bool {
	val := func(i int) float64 { return float64((i*37)%19-9) / 7 }
	src := make([]float64, 12*9)
	for i := range src {
		src[i] = val(i + 3)
	}
	var want, got [9]float64
	for n := 0; n <= 12; n++ {
		a := make([]float64, n)
		for t := range a {
			switch {
			case n == 11 && t == 4:
				a[t] = math.NaN()
			case t%5 == 1:
			case t%7 == 3:
				a[t] = math.Copysign(0, -1)
			default:
				a[t] = val(t)
			}
		}
		for w := 0; w <= 9; w++ {
			sumRowsGo(want[:w], a, src)
			sum(got[:w], a, src)
			if !sameBits(got[:w], want[:w]) {
				return false
			}
		}
	}
	c := &adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999, bc1: 0.19, bc2: 0.001999, lr: 2e-3, eps: 1e-8}
	for n := 0; n <= 9; n++ {
		var state [2][4][9]float64 // val, grad, m, v for the Go code and for adam
		for s := range state {
			for j := 0; j < n; j++ {
				state[s][0][j], state[s][1][j] = val(j), val(j+5)/100
				state[s][2][j], state[s][3][j] = val(j+1)/10, math.Abs(val(j+2))/1000
			}
		}
		g, k := &state[0], &state[1]
		adamGo(g[0][:n], g[1][:n], g[2][:n], g[3][:n], c)
		adam(k[0][:n], k[1][:n], k[2][:n], k[3][:n], c)
		for i := range g {
			if !sameBits(k[i][:n], g[i][:n]) {
				return false
			}
		}
	}
	return true
}

// tanhRows sets dst[i] = math.Tanh(src[i]) for every i < len(dst).
func tanhRows(dst, src []float64) {
	src = src[:len(dst)]
	if useTanhKernel {
		tanhAsm(dst, src)
		return
	}
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}

// tanhSaturates is math.tanh's 0.5·MAXLOG: above it tanh returns ±1,
// from 0.625 up to it tanh goes through exp.
const tanhSaturates = 0.5 * 8.8029691931113054295988e+01

// tanhMatches reports whether tanh equals math.Tanh bit for bit on probe
// values: ±0, subnormals, NaN and ±Inf, both sides of the branch points
// 0.625 and tanhSaturates, 256 values in the rational branch and 48 in
// the exp branch with alternating signs, and four inputs whose tanh
// differs between math.Exp's FMA and non-FMA paths (a few percent of
// inputs below 2 do, almost none above 4), so the kernel turns off when
// math.Exp leaves its FMA path. The last three values also run alone,
// through the one-element tail. The probe takes a few microseconds.
func tanhMatches(tanh func(dst, src []float64)) bool {
	xs := []float64{0, math.Copysign(0, -1), 5e-324, -0x1p-1022, math.NaN(), math.Inf(1), math.Inf(-1),
		0.625039375, -1.000485, 2.00013, -4.34352}
	for _, b := range []float64{0.625, tanhSaturates} {
		xs = append(xs, b, -math.Nextafter(b, 0), math.Nextafter(b, 100))
	}
	for i := 1; i <= 256; i++ {
		sign := 1.0
		if i%2 == 0 {
			sign = -1
		}
		xs = append(xs, sign*float64(i)/410)
		if i <= 48 {
			xs = append(xs, sign*(0.625+float64(i*i)/53))
		}
	}
	want, got := make([]float64, len(xs)), make([]float64, len(xs))
	for i, x := range xs {
		want[i] = math.Tanh(x)
	}
	for lo := 0; lo < len(xs); lo = max(lo+1, len(xs)-3) {
		tanh(got[lo:], xs[lo:])
		if !sameBits(got[lo:], want[lo:]) {
			return false
		}
	}
	return true
}

func sameBits(got, want []float64) bool {
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
