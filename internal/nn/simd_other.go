//go:build !amd64

package nn

// The assembly kernels exist only on amd64; elsewhere the Go code runs.

func sumRowsAsm([]float64, []float64, []float64) {
	panic("nn: no assembly kernel on this architecture")
}

func adamAsm([]float64, []float64, []float64, []float64, *adamCoef) {
	panic("nn: no assembly kernel on this architecture")
}

func tanhAsm([]float64, []float64) {
	panic("nn: no assembly kernel on this architecture")
}
