//go:build amd64

package cpufeat

// Implemented in cpufeat_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

var hasAVX2, hasFMA = detect()

// detect reads the AVX2 and FMA feature bits, both only when the CPU
// has AVX and the OS has enabled the SSE and AVX register state.
func detect() (avx2, fma bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // SSE and AVX state enabled
		return false, false
	}
	const avx2Bit = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2Bit != 0, ecx&fmaBit != 0
}
