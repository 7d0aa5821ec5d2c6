#include "textflag.h"

// func mulAVX2(tables *[32]byte, in, out []byte)
// out[i] ^= tables[in[i]&15] ^ tables[16+in[i]>>4] for the len(in)&^31
// leading bytes: one VPSHUFB per nibble, 32 bytes a step.
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tables+0(FP), AX
	MOVQ in_base+8(FP), SI
	MOVQ in_len+16(FP), CX
	MOVQ out_base+32(FP), DI
	SHRQ $5, CX
	JZ   done
	VBROADCASTI128 (AX), Y0   // coef·low nibble
	VBROADCASTI128 16(AX), Y1 // coef·high nibble
	MOVQ $15, BX
	MOVQ BX, X2
	VPBROADCASTB X2, Y2       // nibble mask

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
