//go:build amd64

package nn

// Implemented in simd_amd64.s.

//go:noescape
func sumRowsAsm(dst, a, src []float64)

//go:noescape
func adamAsm(val, grad, m, v []float64, c *adamCoef)

//go:noescape
func tanhAsm(dst, src []float64)
