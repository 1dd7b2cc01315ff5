//go:build !amd64

package gp

// The assembly kernel exists only on amd64; elsewhere the Go passes run.

func covAsm(*[Lanes]float64, float64, float64, *[Lanes]float64) int {
	panic("gp: no assembly kernel on this architecture")
}

func kernelRowsAsm([][Lanes]float64, [][]float64, float64, float64, []float64, [][Lanes]float64, *[Lanes]float64) int {
	panic("gp: no assembly kernel on this architecture")
}

func forwardAsm([]float64, [][Lanes]float64, *[Lanes]float64) {
	panic("gp: no assembly kernel on this architecture")
}
