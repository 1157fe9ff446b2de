//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"
#include "lanes_amd64.h"

// The F_r kernels: eight scalar-field products or FFT butterflies at
// once, on the toolkit of lanes_amd64.h, over contiguous 32-byte
// elements (fr.go has the algebra and the bound table). Every block
// moves through memory with TLOAD4 and TSTORE4; the memory operand of
// its product is packed into the 320-byte frame at 0(SP).

// func FrMul(c *Consts, dst, a, b *uint64, bstride, nb int)
TEXT ·FrMul(SB), NOSPLIT, $320-48
	MOVQ c+0(FP), R11
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ bstride+32(FP), DX
	SHLQ $8, DX // b's step per block: 256 bytes, or 0 for a scalar's copies
	MOVQ nb+40(FP), CX
	CONSTS
	TPERMS

mulLoop:
	TLOAD4(0, BX)
	PACK(Z20, Z21, Z22, Z23, Z24) // b
	STORE5(Z20, Z21, Z22, Z23, Z24, 0, SP)
	TLOAD4(0, SI)
	PACK(Z0, Z1, Z2, Z3, Z4)      // a
	SHL4(Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)

	// dst = (a·2⁴)·b < 2r, made canonical.
	MONTMUL(0, SP)
	MOV5(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	TSTORE4(0, DI)

	ADDQ $256, SI
	ADDQ DX, BX
	ADDQ $256, DI
	DECQ CX
	JNZ  mulLoop
	VZEROUPPER
	RET

// func FrButterfly(c *Consts, a, b, tw *uint64, nb int)
TEXT ·FrButterfly(SB), NOSPLIT, $320-40
	MOVQ c+0(FP), R11
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ tw+24(FP), BX
	MOVQ nb+32(FP), CX
	CONSTS
	TPERMS

butterflyLoop:
	TLOAD4(0, BX)
	PACK(Z20, Z21, Z22, Z23, Z24) // ω
	STORE5(Z20, Z21, Z22, Z23, Z24, 0, SP)
	TLOAD4(0, DI)
	PACK(Z0, Z1, Z2, Z3, Z4)      // b
	SHL4(Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)

	// t = (b·2⁴)·ω < 2r, made canonical, kept in T.
	MONTMUL(0, SP)
	MOV5(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p)
	MOV5(Z20, Z21, Z22, Z23, Z24, Z10, Z11, Z12, Z13, Z14)
	TLOAD4(0, SI)
	PACK(Z0, Z1, Z2, Z3, Z4)      // a

	// a + t < 2r, made canonical.
	ADDREG(Z20, Z21, Z22, Z23, Z24, Z0, Z1, Z2, Z3, Z4)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	TSTORE4(0, SI)

	// a − t + r < 2r, made canonical.
	SUBP(Z0, Z1, Z2, Z3, Z4, Z10, Z11, Z12, Z13, Z14)
	NORM(Z0, Z1, Z2, Z3, Z4)
	MOV5(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	TSTORE4(0, DI)

	ADDQ $256, SI
	ADDQ $256, DI
	ADDQ $256, BX
	DECQ CX
	JNZ  butterflyLoop
	VZEROUPPER
	RET
