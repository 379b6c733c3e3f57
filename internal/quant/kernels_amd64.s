#include "textflag.h"

// SQ8ROW scores one row's 8-byte block at (ptr)(AX*1) against the block's
// coefficients (Y4 = lin, Y5 = quad) and adds the eight terms into the
// row's four-lane accumulator acc: lanes 0–3, then lanes 4–7, which is
// polyAcc's order. Each term is c*(quad*c - lin) with every operation
// rounded to float32, as l2Term computes it; there is no FMA.
#define SQ8ROW(ptr, acc, yc, yt, xt) \
	VPMOVZXBD    (ptr)(AX*1), yc; \
	VCVTDQ2PS    yc, yc;          \
	VMULPS       Y5, yc, yt;      \
	VSUBPS       Y4, yt, yt;      \
	VMULPS       yc, yt, yt;      \
	VADDPS       xt, acc, acc;    \
	VEXTRACTF128 $1, yt, xt;      \
	VADDPS       xt, acc, acc

// SQ8OUT folds a row's accumulator [s0, s1, s2, s3] into
// constant + ((s0+s1) + (s2+s3)), polyAcc's final sum plus the query's
// constant term (X15), and stores it at off(DI).
#define SQ8OUT(acc, tmp, off) \
	VMOVSHDUP acc, tmp;      \
	VADDPS    tmp, acc, acc; \
	VMOVHLPS  acc, acc, tmp; \
	VADDSS    tmp, acc, acc; \
	VADDSS    acc, X15, acc; \
	VMOVSS    acc, off(DI)

// func sq8L2x4AVX2(codes []byte, dim, rows int, lin, quad []float32, constant float32, out []float32)
//
// Four rows per pass: the block's coefficients are loaded once and scored
// against each row. dim is a positive multiple of 8 and rows a positive
// multiple of 4; the caller checks every length.
TEXT ·sq8L2x4AVX2(SB), NOSPLIT, $0-120
	MOVQ   codes_base+0(FP), SI
	MOVQ   dim+24(FP), DX
	MOVQ   rows+32(FP), R8
	MOVQ   lin_base+40(FP), R9
	MOVQ   quad_base+64(FP), R10
	VMOVSS constant+88(FP), X15
	MOVQ   out_base+96(FP), DI

rows4:
	LEAQ   (SI)(DX*1), R11
	LEAQ   (R11)(DX*1), R12
	LEAQ   (R12)(DX*1), R13
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	XORQ   AX, AX
	MOVQ   R9, BX
	MOVQ   R10, CX

block:
	VMOVUPS (BX), Y4
	VMOVUPS (CX), Y5
	SQ8ROW(SI, X0, Y6, Y7, X7)
	SQ8ROW(R11, X1, Y8, Y9, X9)
	SQ8ROW(R12, X2, Y10, Y11, X11)
	SQ8ROW(R13, X3, Y12, Y13, X13)
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      block

	SQ8OUT(X0, X6, 0)
	SQ8OUT(X1, X8, 4)
	SQ8OUT(X2, X10, 8)
	SQ8OUT(X3, X12, 12)
	LEAQ (SI)(DX*4), SI
	ADDQ $16, DI
	SUBQ $4, R8
	JNZ  rows4

	VZEROUPPER
	RET
