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

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// HSUM folds the eight lanes of Y0 into the low lane of X0.
#define HSUM \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPS       X1, X0, X0; \
	VMOVHLPS     X0, X0, X1; \
	VADDPS       X1, X0, X0; \
	VMOVSHDUP    X0, X1;     \
	VADDSS       X1, X0, X0

// func dotAVX2(a, b []float32) float32
//
// Four 8-lane FMA accumulators over 32-element blocks, one accumulator
// over the remaining 8-element blocks, then a scalar FMA tail. len(b) is
// checked by the caller to equal len(a).
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ CX, $32
	JL   dot8

dot32:
	VMOVUPS     (SI), Y4
	VMOVUPS     32(SI), Y5
	VMOVUPS     64(SI), Y6
	VMOVUPS     96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $32, CX
	CMPQ        CX, $32
	JGE         dot32
	VADDPS      Y1, Y0, Y0
	VADDPS      Y3, Y2, Y2
	VADDPS      Y2, Y0, Y0

dot8:
	CMPQ        CX, $8
	JL          dotreduce
	VMOVUPS     (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JMP         dot8

dotreduce:
	HSUM

dot1:
	TESTQ       CX, CX
	JE          dotdone
	VMOVSS      (SI), X1
	VFMADD231SS (DI), X1, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        CX
	JMP         dot1

dotdone:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func l2AVX2(a, b []float32) float32
//
// Same blocking as dotAVX2 over the differences a[i]-b[i].
TEXT ·l2AVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ CX, $32
	JL   l28

l232:
	VMOVUPS     (SI), Y4
	VMOVUPS     32(SI), Y5
	VMOVUPS     64(SI), Y6
	VMOVUPS     96(SI), Y7
	VSUBPS      (DI), Y4, Y4
	VSUBPS      32(DI), Y5, Y5
	VSUBPS      64(DI), Y6, Y6
	VSUBPS      96(DI), Y7, Y7
	VFMADD231PS Y4, Y4, Y0
	VFMADD231PS Y5, Y5, Y1
	VFMADD231PS Y6, Y6, Y2
	VFMADD231PS Y7, Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $32, CX
	CMPQ        CX, $32
	JGE         l232
	VADDPS      Y1, Y0, Y0
	VADDPS      Y3, Y2, Y2
	VADDPS      Y2, Y0, Y0

l28:
	CMPQ        CX, $8
	JL          l2reduce
	VMOVUPS     (SI), Y4
	VSUBPS      (DI), Y4, Y4
	VFMADD231PS Y4, Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JMP         l28

l2reduce:
	HSUM

l21:
	TESTQ       CX, CX
	JE          l2done
	VMOVSS      (SI), X1
	VSUBSS      (DI), X1, X1
	VFMADD231SS X1, X1, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        CX
	JMP         l21

l2done:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// HSUM4 folds the four 8-lane accumulators a, b, c, d into the four lanes
// of xa (the low half of a): [sum(a), sum(b), sum(c), sum(d)]. It clobbers
// c and X15.
#define HSUM4(a, b, c, d, xa) \
	VHADDPS      b, a, a;    \
	VHADDPS      d, c, c;    \
	VHADDPS      c, a, a;    \
	VEXTRACTF128 $1, a, X15; \
	VADDPS       X15, xa, xa

// L2OUT turns the four dot products in xd into squared L2 distances,
// max(0, (xn+cn) - 2*dot) with xn broadcast in xs and cn in X12, and
// stores them at (p)(AX*4). X13 holds zeros; the clamp keeps a NaN.
#define L2OUT(xs, xd, p) \
	VADDPS  X12, xs, xs; \
	VADDPS  xd, xd, xd;  \
	VSUBPS  xd, xs, xs;  \
	VMAXPS  xs, X13, xs; \
	VMOVUPS xs, (p)(AX*4)

// func l2Strip3x4AVX2(x, c []float32, dim, ncols int, xn, cn, out []float32, ostride int)
//
// Squared L2 distances from the three dim-element rows at x to the first
// ncols rows of c, by the norm expansion with the squared norms xn[0:3] and
// cn[0:ncols]: out[i*ostride+j] = max(0, xn[i]+cn[j] - 2*x_i.c_j). dim is a
// positive multiple of 8 and ncols a multiple of 4; the caller checks the
// slice lengths.
//
// Each 3x4 tile of dot products keeps twelve 8-lane FMA accumulators
// (Y0-Y11, row i column j in Y(4i+j)). Per 8 elements the three x rows are
// loaded once into Y12-Y14 and each c row once into Y15: 7 loads for 12
// FMAs, where a pairwise kernel needs 2 loads per FMA.
TEXT ·l2Strip3x4AVX2(SB), NOSPLIT, $0-144
	MOVQ x_base+0(FP), SI
	MOVQ c_base+24(FP), DI
	MOVQ dim+48(FP), DX
	SHLQ $2, DX                // row length in bytes
	MOVQ out_base+112(FP), BX
	MOVQ ostride+136(FP), R8
	SHLQ $2, R8                // output row stride in bytes
	LEAQ (SI)(DX*1), R9        // x row 1
	LEAQ (SI)(DX*2), R10       // x row 2
	XORQ AX, AX                // first column of the tile
	CMPQ AX, ncols+56(FP)
	JGE  stripdone

striptile:
	LEAQ   (DI)(DX*1), R11     // c rows 1-3 of the tile
	LEAQ   (DI)(DX*2), R12
	LEAQ   (R11)(DX*2), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ   CX, CX              // byte offset into every row

striploop:
	VMOVUPS     (SI)(CX*1), Y12
	VMOVUPS     (R9)(CX*1), Y13
	VMOVUPS     (R10)(CX*1), Y14
	VMOVUPS     (DI)(CX*1), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y4
	VFMADD231PS Y15, Y14, Y8
	VMOVUPS     (R11)(CX*1), Y15
	VFMADD231PS Y15, Y12, Y1
	VFMADD231PS Y15, Y13, Y5
	VFMADD231PS Y15, Y14, Y9
	VMOVUPS     (R12)(CX*1), Y15
	VFMADD231PS Y15, Y12, Y2
	VFMADD231PS Y15, Y13, Y6
	VFMADD231PS Y15, Y14, Y10
	VMOVUPS     (R13)(CX*1), Y15
	VFMADD231PS Y15, Y12, Y3
	VFMADD231PS Y15, Y13, Y7
	VFMADD231PS Y15, Y14, Y11
	ADDQ        $32, CX
	CMPQ        CX, DX
	JL          striploop

	HSUM4(Y0, Y1, Y2, Y3, X0)
	HSUM4(Y4, Y5, Y6, Y7, X4)
	HSUM4(Y8, Y9, Y10, Y11, X8)
	MOVQ         xn_base+64(FP), CX
	VBROADCASTSS (CX), X1
	VBROADCASTSS 4(CX), X5
	VBROADCASTSS 8(CX), X9
	MOVQ         cn_base+88(FP), CX
	VMOVUPS      (CX)(AX*4), X12
	VXORPS       X13, X13, X13
	L2OUT(X1, X0, BX)
	LEAQ         (BX)(R8*1), CX
	L2OUT(X5, X4, CX)
	LEAQ         (CX)(R8*1), CX
	L2OUT(X9, X8, CX)

	LEAQ (R13)(DX*1), DI       // next tile's c row 0
	ADDQ $4, AX
	CMPQ AX, ncols+56(FP)
	JL   striptile

stripdone:
	VZEROUPPER
	RET
