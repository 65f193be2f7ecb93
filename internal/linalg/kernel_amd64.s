#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The affine kernel. For each row it walks the output columns in
// blocks of four, two or one YMM registers (16, 8 or 4 columns): the
// widest that still fits, so that independent sums are in flight while
// an add completes. A block seeds its accumulators with the bias, then
// for k = 0..K-1 broadcasts a[off[k]], multiplies it into the block's
// slice of weight row k (VMULPD, rounded) and adds the products to the
// accumulators (VADDPD, rounded, accumulator as first source). No FMA:
// the scalar loop this must equal bit for bit rounds the product
// before the sum.
//
// Registers:
//	DI  dst, base of the current row      SI  a, base of the current row
//	DX  dst, current column               CX  byte offset of the current column in a weight row
//	AX  registers left in this row        R15 rows left
//	R8  w     R10 off     R11 K     R12 weight row stride in bytes     R13 dst column stride in bytes
//	R14 w at (k, current column)          R9  k     BX scratch
//
// A full register is stored whole when the columns are adjacent
// (R13 == 8) and lane by lane otherwise. Only the last register of a
// row can be partial (n%4 lanes); every block hands its last register
// to `last` in Y0, which knows.

#define SCATTER(Y, X) \
	VMOVSD       X, (DX)          \
	VMOVHPD      X, (DX)(R13*1)   \
	VEXTRACTF128 $1, Y, X         \
	LEAQ         (DX)(R13*2), DX  \
	VMOVSD       X, (DX)          \
	VMOVHPD      X, (DX)(R13*1)   \
	LEAQ         (DX)(R13*2), DX

// func affineAVX2(dst *float64, dstRow, dstCol int, a *float64, aRow, rows int, w, bias *float64, off *int, n, k int)
TEXT ·affineAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ dstCol+16(FP), R13
	SHLQ $3, R13
	MOVQ a+24(FP), SI
	MOVQ rows+40(FP), R15
	MOVQ w+48(FP), R8
	MOVQ off+64(FP), R10
	MOVQ k+80(FP), R11
	MOVQ n+72(FP), R12
	ADDQ $3, R12
	ANDQ $~3, R12
	SHLQ $3, R12

row:
	MOVQ R12, AX
	SHRQ $5, AX
	XORQ CX, CX
	MOVQ DI, DX

next:
	CMPQ  AX, $4
	JGE   block4
	CMPQ  AX, $2
	JGE   block2
	TESTQ AX, AX
	JNZ   block1
	MOVQ  dstRow+8(FP), BX
	LEAQ  (DI)(BX*8), DI
	MOVQ  aRow+32(FP), BX
	LEAQ  (SI)(BX*8), SI
	DECQ  R15
	JNZ   row
	VZEROUPPER
	RET

block4:
	MOVQ    bias+56(FP), BX
	VMOVUPD (BX)(CX*1), Y0
	VMOVUPD 32(BX)(CX*1), Y1
	VMOVUPD 64(BX)(CX*1), Y2
	VMOVUPD 96(BX)(CX*1), Y3
	LEAQ    (R8)(CX*1), R14
	XORQ    R9, R9

k4:
	MOVQ         (R10)(R9*8), BX
	VBROADCASTSD (SI)(BX*8), Y8
	VMULPD       (R14), Y8, Y4
	VMULPD       32(R14), Y8, Y5
	VMULPD       64(R14), Y8, Y6
	VMULPD       96(R14), Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         R12, R14
	INCQ         R9
	CMPQ         R9, R11
	JLT          k4
	ADDQ         $128, CX
	SUBQ         $4, AX
	CMPQ         R13, $8
	JNE          scatter4
	VMOVUPD      Y0, (DX)
	VMOVUPD      Y1, 32(DX)
	VMOVUPD      Y2, 64(DX)
	ADDQ         $96, DX
	VMOVAPD      Y3, Y0
	JMP          last

scatter4:
	SCATTER(Y0, X0)
	SCATTER(Y1, X1)
	SCATTER(Y2, X2)
	VMOVAPD Y3, Y0
	JMP     last

block2:
	MOVQ    bias+56(FP), BX
	VMOVUPD (BX)(CX*1), Y0
	VMOVUPD 32(BX)(CX*1), Y1
	LEAQ    (R8)(CX*1), R14
	XORQ    R9, R9

k2:
	MOVQ         (R10)(R9*8), BX
	VBROADCASTSD (SI)(BX*8), Y8
	VMULPD       (R14), Y8, Y4
	VMULPD       32(R14), Y8, Y5
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	ADDQ         R12, R14
	INCQ         R9
	CMPQ         R9, R11
	JLT          k2
	ADDQ         $64, CX
	SUBQ         $2, AX
	CMPQ         R13, $8
	JNE          scatter2
	VMOVUPD      Y0, (DX)
	ADDQ         $32, DX
	VMOVAPD      Y1, Y0
	JMP          last

scatter2:
	SCATTER(Y0, X0)
	VMOVAPD Y1, Y0
	JMP     last

block1:
	MOVQ    bias+56(FP), BX
	VMOVUPD (BX)(CX*1), Y0
	LEAQ    (R8)(CX*1), R14
	XORQ    R9, R9

k1:
	MOVQ         (R10)(R9*8), BX
	VBROADCASTSD (SI)(BX*8), Y8
	VMULPD       (R14), Y8, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         R12, R14
	INCQ         R9
	CMPQ         R9, R11
	JLT          k1
	ADDQ         $32, CX
	DECQ         AX

last:
	TESTQ AX, AX
	JNZ   whole
	MOVQ  n+72(FP), BX
	ANDQ  $3, BX
	JZ    whole
	VMOVSD X0, (DX)
	CMPQ  BX, $1
	JE    next
	VMOVHPD X0, (DX)(R13*1)
	CMPQ  BX, $2
	JE    next
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, (DX)(R13*2)
	JMP   next

whole:
	CMPQ    R13, $8
	JNE     scatter1
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	JMP     next

scatter1:
	SCATTER(Y0, X0)
	JMP next

// func reluAVX2(dst, src *float64, n int)
//
// MAX returns its second source when either operand is a NaN and when
// both are zeros, so with the input first and +0 second a NaN and a -0
// both come out +0, as `if x > 0 { x } else { 0 }` has them.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y1, Y1, Y1
	CMPQ   CX, $4
	JLT    tail

four:
	VMOVUPD (SI), Y0
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     four

tail:
	TESTQ CX, CX
	JZ    done

one:
	VMOVSD (SI), X0
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    one

done:
	VZEROUPPER
	RET
