//go:build amd64 && !purego

#include "textflag.h"
#include "funcdata.h"

// F_p² products with two Montgomery reductions instead of three (Mul) or
// two (Square) — lazy reduction: the Karatsuba products are formed as
// full 512-bit integers, combined unreduced, and each coordinate is
// reduced once. p's limbs and −p⁻¹ mod 2⁶⁴ come from the package's Go
// variables ·pLimbs and ·pInvNeg, set from fp's constant block.
//
// Why the bounds hold: p < 2²⁵⁴, so a sum of two canonical elements is
// below 2p < 2²⁵⁵ and needs no fifth limb; every REDC input V below is
// in [0, p·2²⁵⁶), so REDC(V) = (V + m·p)/2²⁵⁶ < 2p and one masked
// subtraction of p makes it canonical. The outputs are therefore the
// same canonical limbs the portable core (e2.go) computes.
//
// Register map shared by the macros:
//
//	SI, DI                     operand pointers of MUL256
//	R8 R9 R10 R11 R12 R13 R14 BX   the 512-bit value t0..t7
//	DX                         MULX multiplier
//	AX, CX                     scratch (low / high product words)

// MUL256 sets t0..t7 = [SI]·[DI], two 4-limb little-endian integers, by
// rows: the ADOX chain adds a row's low words, the ADCX chain its high
// words one limb up, and both carries land in the row's fresh top limb.
#define MUL256 \
	XORQ  AX, AX;          \
	MOVQ  0(DI), DX;       \
	MULXQ 0(SI), R8, R9;   \
	MULXQ 8(SI), AX, R10;  \
	ADOXQ AX, R9;          \
	MULXQ 16(SI), AX, R11; \
	ADOXQ AX, R10;         \
	MULXQ 24(SI), AX, R12; \
	ADOXQ AX, R11;         \
	MOVQ  $0, AX;          \
	ADOXQ AX, R12;         \
	XORQ  AX, AX;          \
	MOVQ  8(DI), DX;       \
	MULXQ 0(SI), AX, CX;   \
	ADOXQ AX, R9;          \
	ADCXQ CX, R10;         \
	MULXQ 8(SI), AX, CX;   \
	ADOXQ AX, R10;         \
	ADCXQ CX, R11;         \
	MULXQ 16(SI), AX, CX;  \
	ADOXQ AX, R11;         \
	ADCXQ CX, R12;         \
	MULXQ 24(SI), AX, R13; \
	ADOXQ AX, R12;         \
	MOVQ  $0, AX;          \
	ADCXQ AX, R13;         \
	ADOXQ AX, R13;         \
	XORQ  AX, AX;          \
	MOVQ  16(DI), DX;      \
	MULXQ 0(SI), AX, CX;   \
	ADOXQ AX, R10;         \
	ADCXQ CX, R11;         \
	MULXQ 8(SI), AX, CX;   \
	ADOXQ AX, R11;         \
	ADCXQ CX, R12;         \
	MULXQ 16(SI), AX, CX;  \
	ADOXQ AX, R12;         \
	ADCXQ CX, R13;         \
	MULXQ 24(SI), AX, R14; \
	ADOXQ AX, R13;         \
	MOVQ  $0, AX;          \
	ADCXQ AX, R14;         \
	ADOXQ AX, R14;         \
	XORQ  AX, AX;          \
	MOVQ  24(DI), DX;      \
	MULXQ 0(SI), AX, CX;   \
	ADOXQ AX, R11;         \
	ADCXQ CX, R12;         \
	MULXQ 8(SI), AX, CX;   \
	ADOXQ AX, R12;         \
	ADCXQ CX, R13;         \
	MULXQ 16(SI), AX, CX;  \
	ADOXQ AX, R13;         \
	ADCXQ CX, R14;         \
	MULXQ 24(SI), AX, BX;  \
	ADOXQ AX, R14;         \
	MOVQ  $0, AX;          \
	ADCXQ AX, BX;          \
	ADOXQ AX, BX

// REDC_ROUND(ti, t1, t2, t3, t4, hc): t += m·p·2^(64i) with m = ti·pInvNeg,
// which zeroes ti. hc, the two chains' carries out of the previous round,
// enters at t4 (the first round passes AX, which is zero there); this
// round's carries out of t4 are collected in ti, now free, as the next
// round's hc, in [0, 2].
#define REDC_ROUND(ti, t1, t2, t3, t4, hc) \
	MOVQ  ·pInvNeg(SB), DX;         \
	IMULQ ti, DX;                   \
	XORQ  AX, AX;                   \
	MULXQ ·pLimbs+0(SB), AX, CX;    \
	ADCXQ AX, ti;                   \
	ADOXQ CX, t1;                   \
	MULXQ ·pLimbs+8(SB), AX, CX;    \
	ADCXQ AX, t1;                   \
	ADOXQ CX, t2;                   \
	MULXQ ·pLimbs+16(SB), AX, CX;   \
	ADCXQ AX, t2;                   \
	ADOXQ CX, t3;                   \
	MULXQ ·pLimbs+24(SB), AX, CX;   \
	ADCXQ AX, t3;                   \
	ADOXQ CX, t4;                   \
	MOVQ  $0, AX;                   \
	ADCXQ hc, t4;                   \
	ADCXQ AX, ti;                   \
	ADOXQ AX, ti

// REDC sets R12, R13, R14, BX = REDC(t0..t7) mod p for t < p·2²⁵⁶. The
// last round's carry out lands above t7; the bound makes it zero.
#define REDC \
	REDC_ROUND(R8, R9, R10, R11, R12, AX);   \
	REDC_ROUND(R9, R10, R11, R12, R13, R8);  \
	REDC_ROUND(R10, R11, R12, R13, R14, R9); \
	REDC_ROUND(R11, R12, R13, R14, BX, R10); \
	MOVQ    R12, R8;                  \
	MOVQ    R13, R9;                  \
	MOVQ    R14, R10;                 \
	MOVQ    BX, R11;                  \
	SUBQ    ·pLimbs+0(SB), R12;       \
	SBBQ    ·pLimbs+8(SB), R13;       \
	SBBQ    ·pLimbs+16(SB), R14;      \
	SBBQ    ·pLimbs+24(SB), BX;       \
	CMOVQCS R8, R12;                  \
	CMOVQCS R9, R13;                  \
	CMOVQCS R10, R14;                 \
	CMOVQCS R11, BX

// STORE(ptr) writes the reduced coordinate to 0(ptr)..24(ptr).
#define STORE(ptr) \
	MOVQ R12, 0(ptr);  \
	MOVQ R13, 8(ptr);  \
	MOVQ R14, 16(ptr); \
	MOVQ BX, 24(ptr)

// SAVE512(off) spills t0..t7 to the frame at off(SP).
#define SAVE512(off) \
	MOVQ R8, (off+0)(SP);  \
	MOVQ R9, (off+8)(SP);  \
	MOVQ R10, (off+16)(SP); \
	MOVQ R11, (off+24)(SP); \
	MOVQ R12, (off+32)(SP); \
	MOVQ R13, (off+40)(SP); \
	MOVQ R14, (off+48)(SP); \
	MOVQ BX, (off+56)(SP)

// SUB512(off): t0..t7 −= the 512-bit value at off(SP); borrow in CF.
#define SUB512(off) \
	SUBQ (off+0)(SP), R8;   \
	SBBQ (off+8)(SP), R9;   \
	SBBQ (off+16)(SP), R10; \
	SBBQ (off+24)(SP), R11; \
	SBBQ (off+32)(SP), R12; \
	SBBQ (off+40)(SP), R13; \
	SBBQ (off+48)(SP), R14; \
	SBBQ (off+56)(SP), BX

// func mulAsm(z, x, y *E2)
//
// T0 = a0·b0, T1 = a1·b1, T2 = (a0+a1)·(b0+b1) with the sums unreduced;
// c1 = REDC(T2 − T0 − T1) = REDC(a0·b1 + a1·b0), in [0, 2p²); c0 =
// REDC(T0 − T1), plus p·2²⁵⁶ when the difference is negative, so in
// [0, p·2²⁵⁶). Frame: T0 at 0, T1 at 64, a0+a1 at 128, b0+b1 at 160.
// z is written only after x and y are consumed, so any aliasing is safe.
TEXT ·mulAsm(SB), NOSPLIT, $192-24
	NO_LOCAL_POINTERS
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	MOVQ 0(SI), AX
	ADDQ 32(SI), AX
	MOVQ AX, 128(SP)
	MOVQ 8(SI), AX
	ADCQ 40(SI), AX
	MOVQ AX, 136(SP)
	MOVQ 16(SI), AX
	ADCQ 48(SI), AX
	MOVQ AX, 144(SP)
	MOVQ 24(SI), AX
	ADCQ 56(SI), AX
	MOVQ AX, 152(SP)

	MOVQ 0(DI), AX
	ADDQ 32(DI), AX
	MOVQ AX, 160(SP)
	MOVQ 8(DI), AX
	ADCQ 40(DI), AX
	MOVQ AX, 168(SP)
	MOVQ 16(DI), AX
	ADCQ 48(DI), AX
	MOVQ AX, 176(SP)
	MOVQ 24(DI), AX
	ADCQ 56(DI), AX
	MOVQ AX, 184(SP)

	MUL256
	SAVE512(0)
	ADDQ $32, SI
	ADDQ $32, DI
	MUL256
	SAVE512(64)
	LEAQ 128(SP), SI
	LEAQ 160(SP), DI
	MUL256

	SUB512(0)
	SUB512(64)
	REDC
	MOVQ z+0(FP), DI
	ADDQ $32, DI
	STORE(DI)

	MOVQ 0(SP), R8
	MOVQ 8(SP), R9
	MOVQ 16(SP), R10
	MOVQ 24(SP), R11
	MOVQ 32(SP), R12
	MOVQ 40(SP), R13
	MOVQ 48(SP), R14
	MOVQ 56(SP), BX
	SUB512(64)
	SBBQ AX, AX
	MOVQ ·pLimbs+0(SB), CX
	ANDQ AX, CX
	MOVQ ·pLimbs+8(SB), DX
	ANDQ AX, DX
	MOVQ ·pLimbs+16(SB), SI
	ANDQ AX, SI
	MOVQ ·pLimbs+24(SB), DI
	ANDQ AX, DI
	ADDQ CX, R12
	ADCQ DX, R13
	ADCQ SI, R14
	ADCQ DI, BX
	REDC
	MOVQ z+0(FP), DI
	STORE(DI)
	RET

// func squareAsm(z, x *E2)
//
// c0 = REDC((a0+a1)·(a0−a1+p)): both factors are below 2p, so the
// product is below 4p² < p·2²⁵⁶. c1 = REDC(2a0·a1), below 2p². Frame:
// a0+a1 at 0, a0−a1+p at 32, 2a0 at 64. z is written only after x is
// consumed.
TEXT ·squareAsm(SB), NOSPLIT, $96-16
	NO_LOCAL_POINTERS
	MOVQ x+8(FP), DI

	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11

	MOVQ R8, AX
	ADDQ 32(DI), AX
	MOVQ AX, 0(SP)
	MOVQ R9, AX
	ADCQ 40(DI), AX
	MOVQ AX, 8(SP)
	MOVQ R10, AX
	ADCQ 48(DI), AX
	MOVQ AX, 16(SP)
	MOVQ R11, AX
	ADCQ 56(DI), AX
	MOVQ AX, 24(SP)

	MOVQ R8, R12
	MOVQ R9, R13
	MOVQ R10, R14
	MOVQ R11, BX
	ADDQ ·pLimbs+0(SB), R12
	ADCQ ·pLimbs+8(SB), R13
	ADCQ ·pLimbs+16(SB), R14
	ADCQ ·pLimbs+24(SB), BX
	SUBQ 32(DI), R12
	SBBQ 40(DI), R13
	SBBQ 48(DI), R14
	SBBQ 56(DI), BX
	MOVQ R12, 32(SP)
	MOVQ R13, 40(SP)
	MOVQ R14, 48(SP)
	MOVQ BX, 56(SP)

	ADDQ R8, R8
	ADCQ R9, R9
	ADCQ R10, R10
	ADCQ R11, R11
	MOVQ R8, 64(SP)
	MOVQ R9, 72(SP)
	MOVQ R10, 80(SP)
	MOVQ R11, 88(SP)

	LEAQ 64(SP), SI
	ADDQ $32, DI
	MUL256
	REDC
	MOVQ z+0(FP), DI
	ADDQ $32, DI
	STORE(DI)

	LEAQ 0(SP), SI
	LEAQ 32(SP), DI
	MUL256
	REDC
	MOVQ z+0(FP), DI
	STORE(DI)
	RET
