package gp

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/cpufeat"
)

// Kernel selection. The four-lane passes of PredictLanes have two
// implementations that give the same bits: the Go code in lanes.go, which
// is the definition and runs everywhere, and an amd64 AVX2+FMA assembly
// kernel (simd_amd64.s) that mirrors it operation for operation. The
// kernel's exp repeats math.Exp's FMA path, so it is only equal to Cov
// when math.Exp takes that path; rather than predict that, an init probe
// runs the kernel's covariance against Cov and keeps the kernel only if
// every probed value matches bit for bit (GODEBUG=cpu.fma=off, for
// example, turns math.Exp's FMA path and with it the kernel off).

// useKernel reports whether PredictLanes runs the assembly kernel. Tests
// set it to false to run the Go passes.
var useKernel = kernelSupported() && kernelMatches(covAsm)

// kernelSupported reports whether the CPU has AVX2 and FMA and the OS
// saves the ymm registers; it is false on every architecture but amd64.
func kernelSupported() bool { return cpufeat.AVX2() && cpufeat.FMA() }

// covFunc is covAsm's signature: the covariances of four squared
// distances under Matern52{v, ls}, with bit l of bad set where lane l's
// exp argument left the kernel's range and out[l] is not a result.
type covFunc func(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) (bad int)

// kernelMatches reports whether cov equals Matern52.Cov bit for bit on
// probe distances, under three hyperparameter pairs that span the grid
// search's, for every lane it does not report as out of range. The
// distances step through the tuning loop's range and span zero,
// subnormals and both sides of the range guard; the probe takes about
// 50 µs.
func kernelMatches(cov covFunc) bool {
	var d2s []float64
	for i := 0; i < 256; i++ {
		d2s = append(d2s, float64(i)/16)
	}
	for e := -1074; e <= 60; e += 13 {
		d2s = append(d2s, math.Ldexp(1, e), math.Ldexp(1.37, e))
	}
	d2s = append(d2s, math.Inf(1), math.NaN())
	for len(d2s)%Lanes != 0 {
		d2s = append(d2s, 1)
	}
	inRange := 0
	var in, out [Lanes]float64
	for _, k := range []Matern52{{Variance: 1, LengthScale: 0.1}, {Variance: 0.1, LengthScale: 1}, {Variance: 10, LengthScale: 10}} {
		for lo := 0; lo < len(d2s); lo += Lanes {
			copy(in[:], d2s[lo:])
			bad := cov(&in, k.Variance, k.LengthScale, &out)
			for l, d2 := range in {
				if bad&(1<<l) != 0 {
					continue
				}
				if math.Float64bits(out[l]) != math.Float64bits(k.Cov(d2)) {
					return false
				}
				inRange++
			}
		}
	}
	return inRange > 0
}
