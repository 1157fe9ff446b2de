//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"
#include "lanes_amd64.h"

// The G1 kernels: eight chord additions at once, on the toolkit of
// lanes_amd64.h. The two Montgomery domains are in lanes.go, the algebra
// and the bound table in g1.go. An affine point is 64 bytes, so the
// qword indices of its coordinates are 8·idx, X at offset 0 and Y at 32.

#define S_ACCINV G1Scratch_AccInv
#define S_DEN G1Scratch_den
#define S_INV G1Scratch_inv
#define S_LAMD G1Scratch_lamD
#define S_X1 G1Scratch_x1
#define S_X2 G1Scratch_x2
#define S_Y1 G1Scratch_y1

// func G1Prefix(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *Vec, nb int)
TEXT ·G1Prefix(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), R11
	MOVQ buckets+8(FP), SI
	MOVQ pts+16(FP), DI
	MOVQ bidx+24(FP), R8
	MOVQ pidx+32(FP), R9
	MOVQ prefix+40(FP), BX
	MOVQ nb+48(FP), CX
	CONSTS

prefixLoop:
	INDICES(3)
	GATHER4(0, SI, Z30)
	PACK(Z20, Z21, Z22, Z23, Z24) // x₁
	GATHER4(0, DI, Z31)
	PACK(Z0, Z1, Z2, Z3, Z4)      // x₂

	// den = (x₂ − x₁ + p)·2⁴ < 32p, in the R' domain.
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	SHL4(Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)

	// prefix[b+1] = den·prefix[b]
	MONTMUL(0, BX)
	STORE5(Z10, Z11, Z12, Z13, Z14, 320, BX)

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $320, BX
	DECQ CX
	JNZ  prefixLoop
	VZEROUPPER
	RET

// func G1Finish(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *Vec, nb int, s *G1Scratch)
TEXT ·G1Finish(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), R11
	MOVQ buckets+8(FP), SI
	MOVQ pts+16(FP), DI
	MOVQ bidx+24(FP), R8
	MOVQ pidx+32(FP), R9
	MOVQ prefix+40(FP), BX
	MOVQ nb+48(FP), CX
	MOVQ s+56(FP), DX
	CONSTS

	// Start at the last block.
	MOVQ  CX, AX
	DECQ  AX
	MOVQ  AX, R10
	SHLQ  $5, R10
	ADDQ  R10, R8
	ADDQ  R10, R9
	IMULQ $320, AX
	ADDQ  AX, BX

finishLoop:
	INDICES(3)
	GATHER4(0, SI, Z30)
	PACK(Z20, Z21, Z22, Z23, Z24) // x₁
	STORE5(Z20, Z21, Z22, Z23, Z24, S_X1, DX)
	GATHER4(0, DI, Z31)
	PACK(Z0, Z1, Z2, Z3, Z4)      // x₂
	STORE5(Z0, Z1, Z2, Z3, Z4, S_X2, DX)

	// den = (x₂ − x₁ + p)·2⁴, as in the forward pass.
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	SHL4(Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)
	STORE5(Z0, Z1, Z2, Z3, Z4, S_DEN, DX)

	// inv = accInv·prefix[b], then accInv = accInv·den: both R'.
	LOAD5(S_ACCINV, DX, Z0, Z1, Z2, Z3, Z4)
	MONTMUL(0, BX)
	STORE5(Z10, Z11, Z12, Z13, Z14, S_INV, DX)
	MONTMUL(S_DEN, DX)
	STORE5(Z10, Z11, Z12, Z13, Z14, S_ACCINV, DX)

	// λ = (y₂ − y₁ + p)·inv, in the R domain (R·R'/R').
	GATHER4(32, SI, Z30)
	PACK(Z20, Z21, Z22, Z23, Z24) // y₁
	STORE5(Z20, Z21, Z22, Z23, Z24, S_Y1, DX)
	GATHER4(32, DI, Z31)
	PACK(Z0, Z1, Z2, Z3, Z4)      // y₂
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	MONTMUL(S_INV, DX)

	// A = λ, lamD = λ·2⁴ (its R'-domain twin, < 32p).
	MOV5(Z10, Z11, Z12, Z13, Z14, Z0, Z1, Z2, Z3, Z4)
	SHL4(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_LAMD, DX)

	// x₃ = λ² + 2p − x₁ − x₂ < 4p, made canonical.
	MONTMUL(S_LAMD, DX)
	ADDK(Consts_p2, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_X1, DX)
	SUBMEM(S_X2, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(0, SI, Z30)

	// y₃ = (x₁ + p − x₃)·lamD + p − y₁ < 3p, made canonical.
	LOAD5(S_X1, DX, Z0, Z1, Z2, Z3, Z4)
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	MONTMUL(S_LAMD, DX)
	ADDK(Consts_p, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_Y1, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(32, SI, Z30)

	SUBQ $32, R8
	SUBQ $32, R9
	SUBQ $320, BX
	DECQ CX
	JNZ  finishLoop
	VZEROUPPER
	RET
