// Package cpufeat reports the x86 vector features that the repository's
// assembly kernels (internal/gp, internal/nn) need. One CPUID/XGETBV
// check serves them all; each kernel still runs an init probe of its own
// before it trusts the hardware.
package cpufeat

// AVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// registers. It is false on every architecture other than amd64.
func AVX2() bool { return hasAVX2 }

// FMA reports whether the CPU has the three-operand fused multiply-add
// instructions and the OS saves the ymm registers. It is false on every
// architecture other than amd64.
func FMA() bool { return hasFMA }
