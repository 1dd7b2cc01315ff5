// The nn training kernels for AVX2. Each ymm register holds four
// neighbouring elements of one output row, and every element repeats
// the Go code's operations in the Go code's order with separate
// multiplies and adds (never fused), so the kernels give the Go
// definitions' bits: sumRowsGo in layer.go and adamGo in optim.go. See
// simd.go for when they run.

#include "textflag.h"

// func sumRowsAsm(dst, a, src []float64)
//
// dst = Σ_t a[t]·src[t] over the rows of src (row width len(dst)): dst
// is cleared to +0, then rows whose coefficient compares unequal to zero
// (NaN included, −0 not) are gathered four at a time and folded into
// each column in increasing t. The fewer than four rows left at the end
// are added one at a time. Registers: DI dst, CX its width, R12 the row
// stride in bytes, SI a, DX len(a), AX t, R13 the address of row t,
// R8–R11 the gathered rows, Y4–Y7 their coefficients, Y15 zero.
// The caller checks len(src) >= len(a)·len(dst).
TEXT ·sumRowsAsm(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), DX
	MOVQ   src_base+48(FP), R13
	MOVQ   CX, R12
	SHLQ   $3, R12
	VXORPD Y15, Y15, Y15
	XORQ   R14, R14

clear4:
	LEAQ    4(R14), BX
	CMPQ    BX, CX
	JGT     clear1
	VMOVUPD Y15, (DI)(R14*8)
	MOVQ    BX, R14
	JMP     clear4

clear1:
	CMPQ   R14, CX
	JGE    cleared
	VMOVSD X15, (DI)(R14*8)
	INCQ   R14
	JMP    clear1

cleared:
	XORQ AX, AX

find0:
	CMPQ     AX, DX
	JGE      done
	VMOVSD   (SI)(AX*8), X4
	MOVQ     R13, R8
	INCQ     AX
	ADDQ     R12, R13
	VUCOMISD X15, X4
	JNE      got0
	JPS      got0
	JMP      find0

got0:
	VBROADCASTSD X4, Y4

find1:
	CMPQ     AX, DX
	JGE      rows1
	VMOVSD   (SI)(AX*8), X5
	MOVQ     R13, R9
	INCQ     AX
	ADDQ     R12, R13
	VUCOMISD X15, X5
	JNE      got1
	JPS      got1
	JMP      find1

got1:
	VBROADCASTSD X5, Y5

find2:
	CMPQ     AX, DX
	JGE      rows2
	VMOVSD   (SI)(AX*8), X6
	MOVQ     R13, R10
	INCQ     AX
	ADDQ     R12, R13
	VUCOMISD X15, X6
	JNE      got2
	JPS      got2
	JMP      find2

got2:
	VBROADCASTSD X6, Y6

find3:
	CMPQ     AX, DX
	JGE      rows3
	VMOVSD   (SI)(AX*8), X7
	MOVQ     R13, R11
	INCQ     AX
	ADDQ     R12, R13
	VUCOMISD X15, X7
	JNE      got3
	JPS      got3
	JMP      find3

got3:
	VBROADCASTSD X7, Y7
	XORQ         R14, R14

fold4:
	LEAQ    4(R14), BX
	CMPQ    BX, CX
	JGT     fold1
	VMOVUPD (DI)(R14*8), Y0
	VMULPD  (R8)(R14*8), Y4, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(R14*8), Y5, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(R14*8), Y6, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R11)(R14*8), Y7, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(R14*8)
	MOVQ    BX, R14
	JMP     fold4

fold1:
	CMPQ   R14, CX
	JGE    find0
	VMOVSD (DI)(R14*8), X0
	VMULSD (R8)(R14*8), X4, X1
	VADDSD X1, X0, X0
	VMULSD (R9)(R14*8), X5, X1
	VADDSD X1, X0, X0
	VMULSD (R10)(R14*8), X6, X1
	VADDSD X1, X0, X0
	VMULSD (R11)(R14*8), X7, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(R14*8)
	INCQ   R14
	JMP    fold1

// rowsN: a ran out with N rows gathered; add them one at a time, row
// R8 with coefficient Y4, then shift the next into R8/Y4.
rows1:
	MOVQ $1, DX
	JMP  one

rows2:
	MOVQ $2, DX
	JMP  one

rows3:
	MOVQ $3, DX

one:
	XORQ R14, R14

one4:
	LEAQ    4(R14), BX
	CMPQ    BX, CX
	JGT     one1
	VMOVUPD (DI)(R14*8), Y0
	VMULPD  (R8)(R14*8), Y4, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(R14*8)
	MOVQ    BX, R14
	JMP     one4

one1:
	CMPQ   R14, CX
	JGE    onedone
	VMOVSD (DI)(R14*8), X0
	VMULSD (R8)(R14*8), X4, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(R14*8)
	INCQ   R14
	JMP    one1

onedone:
	MOVQ    R9, R8
	MOVQ    R10, R9
	VMOVAPD Y5, Y4
	VMOVAPD Y6, Y5
	DECQ    DX
	JNZ     one

done:
	VZEROUPPER
	RET

// func adamAsm(val, grad, m, v []float64, c *adamCoef)
//
// One Adam update per element, four elements per pass and then one at a
// time: m = β1·m + (1−β1)·g; v = β2·v + ((1−β2)·g)·g;
// val −= (lr·(m/bc1)) / (√(v/bc2) + ε). The caller sizes grad, m and v
// to len(val). Y8–Y15 hold c's eight fields in order.
TEXT ·adamAsm(SB), NOSPLIT, $0-104
	MOVQ         val_base+0(FP), DI
	MOVQ         val_len+8(FP), CX
	MOVQ         grad_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         c+96(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	XORQ         R14, R14

adam4:
	LEAQ    4(R14), BX
	CMPQ    BX, CX
	JGT     adam1
	VMOVUPD (SI)(R14*8), Y0
	VMULPD  (R8)(R14*8), Y8, Y1
	VMULPD  Y0, Y9, Y3
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y1, (R8)(R14*8)
	VMULPD  (R9)(R14*8), Y10, Y2
	VMULPD  Y0, Y11, Y3
	VMULPD  Y0, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (R9)(R14*8)
	VDIVPD  Y12, Y1, Y1
	VMULPD  Y14, Y1, Y1
	VDIVPD  Y13, Y2, Y2
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(R14*8), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(R14*8)
	MOVQ    BX, R14
	JMP     adam4

adam1:
	CMPQ    R14, CX
	JGE     adamdone
	VMOVSD  (SI)(R14*8), X0
	VMULSD  (R8)(R14*8), X8, X1
	VMULSD  X0, X9, X3
	VADDSD  X3, X1, X1
	VMOVSD  X1, (R8)(R14*8)
	VMULSD  (R9)(R14*8), X10, X2
	VMULSD  X0, X11, X3
	VMULSD  X0, X3, X3
	VADDSD  X3, X2, X2
	VMOVSD  X2, (R9)(R14*8)
	VDIVSD  X12, X1, X1
	VMULSD  X14, X1, X1
	VDIVSD  X13, X2, X2
	VSQRTSD X2, X2, X2
	VADDSD  X15, X2, X2
	VDIVSD  X2, X1, X1
	VMOVSD  (DI)(R14*8), X3
	VSUBSD  X1, X3, X3
	VMOVSD  X3, (DI)(R14*8)
	INCQ    R14
	JMP     adam1

adamdone:
	VZEROUPPER
	RET
