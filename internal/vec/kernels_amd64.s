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
