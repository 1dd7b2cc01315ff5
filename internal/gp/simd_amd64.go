//go:build amd64

package gp

// Implemented in simd_amd64.s.

//go:noescape
func covAsm(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) (bad int)

//go:noescape
func kernelRowsAsm(q [][Lanes]float64, x [][]float64, v, ls float64, alpha []float64, ks [][Lanes]float64, kAlpha *[Lanes]float64) (bad int)

//go:noescape
func forwardAsm(ld []float64, y [][Lanes]float64, yy *[Lanes]float64)
