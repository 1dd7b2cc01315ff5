// The four-lane GP posterior kernel for AVX2+FMA. Each ymm register
// holds one value of the four interleaved lanes, and every lane repeats
// the scalar Go code's operations in the scalar code's order, so a lane
// gives the scalar result bit for bit: separate multiplies and adds where
// the Go compiler emits separate MULSD and ADDSD, and fused ones only
// where math.Exp's own assembly (math/exp_amd64.s, FMA path) fuses. The
// exp below is that routine's normal path; lanes whose argument leaves
// [−700, 700] (or is NaN) are reported, and the caller then redoes the
// pass in Go. See simd.go for when this kernel runs.

#include "textflag.h"

// gpconst holds each constant four times, one ymm load each.
#define C4(off, v) \
	DATA gpconst<>+(off)(SB)/8, v; \
	DATA gpconst<>+(off+8)(SB)/8, v; \
	DATA gpconst<>+(off+16)(SB)/8, v; \
	DATA gpconst<>+(off+24)(SB)/8, v

C4(0, $0x8000000000000000)     // sign bit
C4(32, $1.0)
C4(64, $3.0)
C4(96, $5.0)
C4(128, $0x4001e3779b97f4a8)   // math.Sqrt(5)
C4(160, $-700.0)
C4(192, $700.0)
C4(224, $1.4426950408889634073599246810018920) // log2(e)
C4(256, $0.69314718055966295651160180568695068359375) // upper half of ln 2
C4(288, $0.28235290563031577122588448175013436025525412068e-12) // lower half of ln 2
C4(320, $0.0625)
C4(352, $2.4801587301587301587e-5)
C4(384, $1.9841269841269841270e-4)
C4(416, $1.3888888888888888889e-3)
C4(448, $8.3333333333333333333e-3)
C4(480, $4.1666666666666666667e-2)
C4(512, $1.6666666666666666667e-1)
C4(544, $0.5)
C4(576, $2.0)
C4(608, $1023)                 // exponent bias, as int64
GLOBL gpconst<>(SB), RODATA, $640

// COV replaces the squared distances in Y0 with Matern52.Cov of them,
// given the variance in Y14 and the length scale in Y15, and clears in
// Y13 the lanes whose exp argument is outside [−700, 700] or NaN. It
// uses Y1–Y9.
//
// Cov: r = √d2 / ls; t = 5·r·r / 3; s = √5·r;
//      p = v·((1 + s) + t); result = p·exp(−s).
// exp(x): n = round(x·log2e); x −= n·ln2u; x −= n·ln2l (both fused);
//         x /= 16; a Taylor polynomial in fused steps; then four
//         doublings x·(x + 2) and a fused last step; result·2ⁿ.
#define COV \
	VSQRTPD      Y0, Y1; \
	VDIVPD       Y15, Y1, Y1; \
	VMULPD       gpconst<>+96(SB), Y1, Y2; \
	VMULPD       Y1, Y2, Y2; \
	VDIVPD       gpconst<>+64(SB), Y2, Y2; \
	VMULPD       gpconst<>+128(SB), Y1, Y3; \
	VADDPD       gpconst<>+32(SB), Y3, Y4; \
	VADDPD       Y2, Y4, Y4; \
	VMULPD       Y14, Y4, Y4; \
	VXORPD       gpconst<>+0(SB), Y3, Y5; \
	VCMPPD       $0x1D, gpconst<>+160(SB), Y5, Y6; \
	VCMPPD       $0x12, gpconst<>+192(SB), Y5, Y7; \
	VANDPD       Y6, Y7, Y6; \
	VANDPD       Y6, Y13, Y13; \
	VMULPD       gpconst<>+224(SB), Y5, Y7; \
	VCVTPD2DQY   Y7, X8; \
	VCVTDQ2PD    X8, Y7; \
	VFNMADD231PD gpconst<>+256(SB), Y7, Y5; \
	VFNMADD231PD gpconst<>+288(SB), Y7, Y5; \
	VMULPD       gpconst<>+320(SB), Y5, Y5; \
	VMOVUPD      gpconst<>+352(SB), Y9; \
	VFMADD213PD  gpconst<>+384(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+416(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+448(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+480(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+512(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+544(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+32(SB), Y5, Y9; \
	VMULPD       Y9, Y5, Y5; \
	VADDPD       gpconst<>+576(SB), Y5, Y9; \
	VMULPD       Y9, Y5, Y5; \
	VADDPD       gpconst<>+576(SB), Y5, Y9; \
	VMULPD       Y9, Y5, Y5; \
	VADDPD       gpconst<>+576(SB), Y5, Y9; \
	VMULPD       Y9, Y5, Y5; \
	VADDPD       gpconst<>+576(SB), Y5, Y9; \
	VFMADD213PD  gpconst<>+32(SB), Y9, Y5; \
	VPMOVSXDQ    X8, Y8; \
	VPADDQ       gpconst<>+608(SB), Y8, Y8; \
	VPSLLQ       $52, Y8, Y8; \
	VMULPD       Y8, Y5, Y5; \
	VMULPD       Y5, Y4, Y0

// func covAsm(d2 *[Lanes]float64, v, ls float64, out *[Lanes]float64) (bad int)
TEXT ·covAsm(SB), NOSPLIT, $0-40
	MOVQ         d2+0(FP), AX
	VMOVUPD      (AX), Y0
	VBROADCASTSD v+8(FP), Y14
	VBROADCASTSD ls+16(FP), Y15
	VPCMPEQQ     Y13, Y13, Y13
	COV
	MOVQ         out+24(FP), AX
	VMOVUPD      Y0, (AX)
	VMOVMSKPD    Y13, AX
	XORQ         $15, AX
	MOVQ         AX, bad+32(FP)
	VZEROUPPER
	RET

// func kernelRowsAsm(q [][Lanes]float64, x [][]float64, v, ls float64, alpha []float64, ks [][Lanes]float64, kAlpha *[Lanes]float64) (bad int)
//
// For each training row x[i]: the four lanes' squared distances to it,
// e = q − x; d2 += e·e over the features in order; their covariances into
// ks row i; and k·α += cov·α[i]. bad has bit l set if lane l left the
// exp range in any row, and all bits if a row holds fewer than len(q)
// values (the Go pass then reports it). len(x) must be at least 1.
TEXT ·kernelRowsAsm(SB), NOSPLIT, $0-128
	MOVQ         q_base+0(FP), SI
	MOVQ         q_len+8(FP), DX
	MOVQ         x_base+24(FP), R8
	MOVQ         x_len+32(FP), R9
	VBROADCASTSD v+48(FP), Y14
	VBROADCASTSD ls+56(FP), Y15
	MOVQ         alpha_base+64(FP), BX
	MOVQ         ks_base+88(FP), DI
	VXORPD       Y12, Y12, Y12
	VPCMPEQQ     Y13, Y13, Y13

row:
	CMPQ   8(R8), DX
	JLT    short
	MOVQ   (R8), R10
	MOVQ   SI, R11
	MOVQ   DX, CX
	VXORPD Y0, Y0, Y0
	TESTQ  CX, CX
	JZ     cov

col:
	VBROADCASTSD (R10), Y11
	VMOVUPD      (R11), Y10
	VSUBPD       Y11, Y10, Y10
	VMULPD       Y10, Y10, Y10
	VADDPD       Y10, Y0, Y0
	ADDQ         $8, R10
	ADDQ         $32, R11
	DECQ         CX
	JNZ          col

cov:
	COV
	VMOVUPD      Y0, (DI)
	VBROADCASTSD (BX), Y10
	VMULPD       Y10, Y0, Y10
	VADDPD       Y10, Y12, Y12
	ADDQ         $8, BX
	ADDQ         $32, DI
	ADDQ         $24, R8
	DECQ         R9
	JNZ          row

	MOVQ      kAlpha+112(FP), AX
	VMOVUPD   Y12, (AX)
	VMOVMSKPD Y13, AX
	XORQ      $15, AX
	MOVQ      AX, bad+120(FP)
	VZEROUPPER
	RET

short:
	MOVQ $15, bad+120(FP)
	VZEROUPPER
	RET

// func forwardAsm(ld []float64, y [][Lanes]float64, yy *[Lanes]float64)
//
// Forward substitution L·y = b in place on four interleaved lanes (y
// holds b on entry), two rows of L at a time: rows i and i+1 load their
// b, subtract l·y[k] for k < i in order, row i divides by its diagonal,
// and row i+1 then subtracts its term in y[i] and divides; the same term
// order as one row at a time. Each solved row adds y·y into yy in row
// order.
TEXT ·forwardAsm(SB), NOSPLIT, $0-56
	MOVQ   ld_base+0(FP), R10
	MOVQ   y_base+24(FP), DI
	MOVQ   y_len+32(FP), CX
	MOVQ   CX, R12
	SHLQ   $3, R12
	VXORPD Y12, Y12, Y12
	XORQ   R8, R8
	MOVQ   DI, R13

pair:
	LEAQ    1(R8), AX
	CMPQ    AX, CX
	JGE     single
	LEAQ    (R10)(R12*1), R11
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	MOVQ    DI, AX
	XORQ    DX, DX
	TESTQ   R8, R8
	JZ      pairdiag

pairk:
	VMOVUPD      (AX), Y2
	VBROADCASTSD (R10)(DX*8), Y3
	VMULPD       Y2, Y3, Y3
	VSUBPD       Y3, Y0, Y0
	VBROADCASTSD (R11)(DX*8), Y4
	VMULPD       Y2, Y4, Y4
	VSUBPD       Y4, Y1, Y1
	ADDQ         $32, AX
	INCQ         DX
	CMPQ         DX, R8
	JLT          pairk

pairdiag:
	VBROADCASTSD (R10)(R8*8), Y3
	VDIVPD       Y3, Y0, Y0
	VMOVUPD      Y0, (R13)
	VMULPD       Y0, Y0, Y5
	VADDPD       Y5, Y12, Y12
	VBROADCASTSD (R11)(R8*8), Y4
	VMULPD       Y0, Y4, Y4
	VSUBPD       Y4, Y1, Y1
	VBROADCASTSD 8(R11)(R8*8), Y4
	VDIVPD       Y4, Y1, Y1
	VMOVUPD      Y1, 32(R13)
	VMULPD       Y1, Y1, Y5
	VADDPD       Y5, Y12, Y12
	ADDQ         $2, R8
	ADDQ         $64, R13
	LEAQ         (R11)(R12*1), R10
	JMP          pair

single:
	CMPQ    R8, CX
	JGE     done
	VMOVUPD (R13), Y0
	MOVQ    DI, AX
	XORQ    DX, DX
	TESTQ   R8, R8
	JZ      singlediag

singlek:
	VMOVUPD      (AX), Y2
	VBROADCASTSD (R10)(DX*8), Y3
	VMULPD       Y2, Y3, Y3
	VSUBPD       Y3, Y0, Y0
	ADDQ         $32, AX
	INCQ         DX
	CMPQ         DX, R8
	JLT          singlek

singlediag:
	VBROADCASTSD (R10)(R8*8), Y3
	VDIVPD       Y3, Y0, Y0
	VMOVUPD      Y0, (R13)
	VMULPD       Y0, Y0, Y5
	VADDPD       Y5, Y12, Y12

done:
	MOVQ    yy+48(FP), AX
	VMOVUPD Y12, (AX)
	VZEROUPPER
	RET
