//go:build amd64 && !purego

#include "textflag.h"
#include "funcdata.h"
#include "go_asm.h"

// Montgomery multiplication in 4×64-bit limbs using MULX (BMI2) and the
// dual ADCX/ADOX carry chains (ADX) — the CIOS "no-carry" form, valid
// because the top limb of the modulus is below 2⁶². The Go wrappers
// only call in when the CPU supports ADX+BMI2.
//
// The modulus is a Field block that SI points at: its limbs and
// −q⁻¹ mod 2⁶⁴ are read at the go_asm.h offsets Field_q and
// Field_qInvNeg, so the same text serves F_p and F_r.
//
// Register map shared by all macros:
//
//	SI                the Field block
//	DI, R8, R9, R10   x limbs (loaded per element)
//	R11               y pointer
//	R14, R13, CX, BX  running result t0..t3
//	BP                round overflow accumulator A
//	DX                MULX multiplier
//	AX, R12           scratch

// MONT_ROUND0: t = x·y[0], overflow accumulator in BP. One ADOX chain
// folds the low words into the assigned high words.
#define MONT_ROUND0 \
	XORQ  AX, AX;       \
	MOVQ  0(R11), DX;   \
	MULXQ DI, R14, R13; \
	MULXQ R8, AX, CX;   \
	ADOXQ AX, R13;      \
	MULXQ R9, AX, BX;   \
	ADOXQ AX, CX;       \
	MULXQ R10, AX, BP;  \
	ADOXQ AX, BX;       \
	MOVQ  $0, AX;       \
	ADOXQ AX, BP

// MONT_ROUND(off): t += x·y[off/8]. The ADOX chain adds low words into
// t, the ADCX chain adds the previous product's high word one limb up;
// both final carries fold into the new accumulator BP.
#define MONT_ROUND(off) \
	XORQ  AX, AX;      \
	MOVQ  off(R11), DX; \
	MULXQ DI, AX, BP;  \
	ADOXQ AX, R14;     \
	ADCXQ BP, R13;     \
	MULXQ R8, AX, BP;  \
	ADOXQ AX, R13;     \
	ADCXQ BP, CX;      \
	MULXQ R9, AX, BP;  \
	ADOXQ AX, CX;      \
	ADCXQ BP, BX;      \
	MULXQ R10, AX, BP; \
	ADOXQ AX, BX;      \
	MOVQ  $0, AX;      \
	ADCXQ AX, BP;      \
	ADOXQ AX, BP

// MONT_REDUCE_STEP: m = t0·qInvNeg; t = (t + m·q)/2⁶⁴, folding the
// round's overflow accumulator BP into the new top limb. The first
// ADCX materializes only the carry of t0 + lo(m·q0) (the low word is
// zero by construction of m).
#define MONT_REDUCE_STEP \
	MOVQ  Field_qInvNeg(SI), DX;    \
	IMULQ R14, DX;                  \
	XORQ  AX, AX;                   \
	MULXQ Field_q+0(SI), AX, R12;   \
	ADCXQ R14, AX;                  \
	MOVQ  R12, R14;                 \
	ADCXQ R13, R14;                 \
	MULXQ Field_q+8(SI), AX, R13;   \
	ADOXQ AX, R14;                  \
	ADCXQ CX, R13;                  \
	MULXQ Field_q+16(SI), AX, CX;   \
	ADOXQ AX, R13;                  \
	ADCXQ BX, CX;                   \
	MULXQ Field_q+24(SI), AX, BX;   \
	ADOXQ AX, CX;                   \
	MOVQ  $0, AX;                   \
	ADCXQ AX, BX;                   \
	ADOXQ BP, BX

// MONT_MUL_BODY: full 4-round Montgomery product of (DI,R8,R9,R10) by
// the 4 limbs at (R11) modulo the Field at (SI), conditionally
// subtracted result in
// R14,R13,CX,BX. Reuses DI,R8,R9,R10 as reduction scratch — the x limbs
// are dead after the last round.
#define MONT_MUL_BODY \
	MONT_ROUND0;         \
	MONT_REDUCE_STEP;    \
	MONT_ROUND(8);       \
	MONT_REDUCE_STEP;    \
	MONT_ROUND(16);      \
	MONT_REDUCE_STEP;    \
	MONT_ROUND(24);      \
	MONT_REDUCE_STEP;    \
	MOVQ  R14, DI;       \
	MOVQ  R13, R8;       \
	MOVQ  CX, R9;        \
	MOVQ  BX, R10;       \
	SUBQ  Field_q+0(SI), R14;  \
	SBBQ  Field_q+8(SI), R13;  \
	SBBQ  Field_q+16(SI), CX;  \
	SBBQ  Field_q+24(SI), BX;  \
	CMOVQCS DI, R14;     \
	CMOVQCS R8, R13;     \
	CMOVQCS R9, CX;      \
	CMOVQCS R10, BX

// func mul(f *Field, z, x, y *[4]uint64)
//
// The 8-byte frame exists only so the assembler's prologue saves and
// restores BP, which the multiply body claims as the overflow
// accumulator. SI carries x's address, then the block's.
TEXT ·mul(SB), NOSPLIT, $8-32
	NO_LOCAL_POINTERS
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), R11
	MOVQ 0(SI), DI
	MOVQ 8(SI), R8
	MOVQ 16(SI), R9
	MOVQ 24(SI), R10
	MOVQ f+0(FP), SI
	MONT_MUL_BODY
	MOVQ z+8(FP), AX
	MOVQ R14, 0(AX)
	MOVQ R13, 8(AX)
	MOVQ CX, 16(AX)
	MOVQ BX, 24(AX)
	RET

// func mulVec(f *Field, res, a, b *[4]uint64, n uint64)
//
// Element-wise products over contiguous arrays. Every general register
// is claimed: the multiply body's, SI for the block (reloaded per
// element), R15 for the a cursor. So the loop counter decrements in its
// argument slot and the output cursor lives in a NO_LOCAL_POINTERS
// stack slot — it steps one past the final element, which a
// pointer-typed slot must never hold. The file references no global
// symbol, which is what leaves R15 free under -dynlink.
TEXT ·mulVec(SB), NOSPLIT, $16-40
	NO_LOCAL_POINTERS
	MOVQ a+16(FP), R15
	MOVQ b+24(FP), R11
	MOVQ res+8(FP), AX
	MOVQ AX, 0(SP)
	MOVQ n+32(FP), AX
	TESTQ AX, AX
	JZ   vecdone

vecloop:
	MOVQ 0(R15), DI
	MOVQ 8(R15), R8
	MOVQ 16(R15), R9
	MOVQ 24(R15), R10
	MOVQ f+0(FP), SI
	MONT_MUL_BODY
	MOVQ 0(SP), AX
	MOVQ R14, 0(AX)
	MOVQ R13, 8(AX)
	MOVQ CX, 16(AX)
	MOVQ BX, 24(AX)
	ADDQ $32, AX
	MOVQ AX, 0(SP)
	ADDQ $32, R15
	ADDQ $32, R11
	DECQ n+32(FP)
	JNZ  vecloop

vecdone:
	RET
