//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"
#include "lanes_amd64.h"

// The lane kernels of the G1 batch-affine flush: eight chord additions
// at once, on the toolkit of lanes_amd64.h. The algebra, the two
// Montgomery domains and the bounds argument are in g1_lanes.go. An
// affine point is 64 bytes, so the qword indices of its coordinates are
// 8·idx, X at offset 0 and Y at 32.

#define S_ACCINV g1LaneScratch_accInv
#define S_DEN g1LaneScratch_den
#define S_INV g1LaneScratch_inv
#define S_LAMD g1LaneScratch_lamD
#define S_X1 g1LaneScratch_x1
#define S_X2 g1LaneScratch_x2
#define S_Y1 g1LaneScratch_y1

// func g1LanePrefix(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int)
TEXT ·g1LanePrefix(SB), NOSPLIT, $0-48
	MOVQ buckets+0(FP), SI
	MOVQ pts+8(FP), DI
	MOVQ bidx+16(FP), R8
	MOVQ pidx+24(FP), R9
	MOVQ prefix+32(FP), BX
	MOVQ nb+40(FP), CX
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

// func g1LaneFinish(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int, s *g1LaneScratch)
TEXT ·g1LaneFinish(SB), NOSPLIT, $0-56
	MOVQ buckets+0(FP), SI
	MOVQ pts+8(FP), DI
	MOVQ bidx+16(FP), R8
	MOVQ pidx+24(FP), R9
	MOVQ prefix+32(FP), BX
	MOVQ nb+40(FP), CX
	MOVQ s+48(FP), DX
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
	ADDK(·laneP2, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_X1, DX)
	SUBMEM(S_X2, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(·laneP2)
	CONDSUB(·laneP)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(0, SI, Z30)

	// y₃ = (x₁ + p − x₃)·lamD + p − y₁ < 3p, made canonical.
	LOAD5(S_X1, DX, Z0, Z1, Z2, Z3, Z4)
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	MONTMUL(S_LAMD, DX)
	ADDK(·laneP, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_Y1, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(·laneP2)
	CONDSUB(·laneP)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(32, SI, Z30)

	SUBQ $32, R8
	SUBQ $32, R9
	SUBQ $320, BX
	DECQ CX
	JNZ  finishLoop
	VZEROUPPER
	RET
