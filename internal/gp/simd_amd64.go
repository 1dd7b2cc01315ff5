//go:build amd64

package gp

// Implemented in simd_amd64.s.

//go:noescape
func covAsm(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) (bad int)

//go:noescape
func kernelRowsAsm(q [][Lanes]float64, x [][]float64, v, ls float64, alpha []float64, ks [][Lanes]float64, kAlpha *[Lanes]float64) (bad int)

//go:noescape
func forwardAsm(ld []float64, y [][Lanes]float64, yy *[Lanes]float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// kernelSupported reports whether the CPU has AVX2 and FMA and the OS
// saves the ymm registers.
func kernelSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // SSE and AVX state enabled
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
