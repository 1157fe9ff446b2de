//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"
#include "lanes_amd64.h"

// The G2 kernels: eight F_p² chord additions at once, on the toolkit of
// lanes_amd64.h. The algebra, the Karatsuba layout and the bound table
// are in g2.go.
// A lane F_p² element is two Vecs 320 bytes apart (A0, A1), a triple
// adds A0 + A1 at 640; prefix[b] is two Vecs, 640 bytes a block.

#define S_ACCINV G2Scratch_AccInv
#define S_DEN G2Scratch_den
#define S_INV G2Scratch_inv
#define S_NUM G2Scratch_num
#define S_LAMD G2Scratch_lamD
#define S_E G2Scratch_e
#define S_X1 G2Scratch_x1
#define S_X2 G2Scratch_x2
#define S_Y1 G2Scratch_y1
#define S_PSUM G2Scratch_psum
#define S_W G2Scratch_w
#define S_LAM0 G2Scratch_lam0
#define S_LAMSUM G2Scratch_lamSum
#define S_LAMDIFF G2Scratch_lamDiff
#define S_X3A1 G2Scratch_x3A1

// KMUL01 starts the Karatsuba product of the lane F_p² elements a at
// aoff(abase) and b at boff(bbase): v0 = a0·b0, v1 = a1·b1. It stores
// v0 + v1 at S_W and leaves c0 = v0 − v1 + 2p in V, normalized.
#define KMUL01(aoff, abase, boff, bbase) \
	LOAD5(aoff, abase, Z0, Z1, Z2, Z3, Z4);                    \
	MONTMUL(boff, bbase);                                      \
	MOV5(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24);    \
	LOAD5(aoff+320, abase, Z0, Z1, Z2, Z3, Z4);                \
	MONTMUL(boff+320, bbase);                                  \
	VPADDQ Z10, Z20, Z25; VPADDQ Z11, Z21, Z26;                \
	VPADDQ Z12, Z22, Z27; VPADDQ Z13, Z23, Z28;                \
	VPADDQ Z14, Z24, Z29;                                      \
	STORE5(Z25, Z26, Z27, Z28, Z29, S_W, DX);                  \
	VPSUBQ Z10, Z20, Z20; VPSUBQ Z11, Z21, Z21;                \
	VPSUBQ Z12, Z22, Z22; VPSUBQ Z13, Z23, Z23;                \
	VPSUBQ Z14, Z24, Z24;                                      \
	ADDK(Consts_p2, Z20, Z21, Z22, Z23, Z24, Z20, Z21, Z22, Z23, Z24); \
	NORM(Z20, Z21, Z22, Z23, Z24)

// KMUL2 ends it: v2 = (a0 + a1)·(b0 + b1) for the sums at asoff(asbase)
// and bsoff(bsbase), leaving c1 = v2 + 4p − (v0 + v1) in V, normalized.
#define KMUL2(asoff, asbase, bsoff, bsbase) \
	LOAD5(asoff, asbase, Z0, Z1, Z2, Z3, Z4);                       \
	MONTMUL(bsoff, bsbase);                                         \
	ADDK(Consts_p4, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24); \
	SUBMEM(S_W, DX);                                                \
	NORM(Z20, Z21, Z22, Z23, Z24)

// DENS gathers the block's x₁ and x₂, stores them at S_X1 and S_X2, and
// stores den = 16·(x₂ − x₁ + p) with its sum 16·((d0 + d1) mod p) at
// S_DEN.
#define DENS \
	GATHER4(0, SI, Z30); PACK(Z20, Z21, Z22, Z23, Z24);              \
	STORE5(Z20, Z21, Z22, Z23, Z24, S_X1, DX);                        \
	GATHER4(0, DI, Z31); PACK(Z0, Z1, Z2, Z3, Z4);                    \
	STORE5(Z0, Z1, Z2, Z3, Z4, S_X2, DX);                             \
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24);                \
	NORM(Z0, Z1, Z2, Z3, Z4);                                         \
	SHL4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9);                     \
	STORE5(Z5, Z6, Z7, Z8, Z9, S_DEN, DX);                            \
	GATHER4(32, SI, Z30); PACK(Z20, Z21, Z22, Z23, Z24);             \
	STORE5(Z20, Z21, Z22, Z23, Z24, S_X1+320, DX);                    \
	GATHER4(32, DI, Z31); PACK(Z10, Z11, Z12, Z13, Z14);             \
	STORE5(Z10, Z11, Z12, Z13, Z14, S_X2+320, DX);                    \
	SUBP(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24);           \
	NORM(Z10, Z11, Z12, Z13, Z14);                                    \
	SHL4(Z10, Z11, Z12, Z13, Z14, Z5, Z6, Z7, Z8, Z9);                \
	STORE5(Z5, Z6, Z7, Z8, Z9, S_DEN+320, DX);                        \
	MOV5(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24);                \
	ADDREG(Z20, Z21, Z22, Z23, Z24, Z10, Z11, Z12, Z13, Z14);         \
	NORM(Z20, Z21, Z22, Z23, Z24);                                    \
	CONDSUB(Consts_p2);                                                 \
	CONDSUB(Consts_p);                                                  \
	SHL4(Z20, Z21, Z22, Z23, Z24, Z20, Z21, Z22, Z23, Z24);           \
	STORE5(Z20, Z21, Z22, Z23, Z24, S_DEN+640, DX)

// PREFIXSUM stores prefix[b]'s A0 + A1 (< 4p) at S_PSUM.
#define PREFIXSUM \
	LOAD5(0, BX, Z20, Z21, Z22, Z23, Z24); \
	ADDMEM(320, BX);                       \
	NORM(Z20, Z21, Z22, Z23, Z24);         \
	STORE5(Z20, Z21, Z22, Z23, Z24, S_PSUM, DX)

// func G2Prefix(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *[2]Vec, nb int, s *G2Scratch)
TEXT ·G2Prefix(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), R11
	MOVQ buckets+8(FP), SI
	MOVQ pts+16(FP), DI
	MOVQ bidx+24(FP), R8
	MOVQ pidx+32(FP), R9
	MOVQ prefix+40(FP), BX
	MOVQ nb+48(FP), CX
	MOVQ s+56(FP), DX
	CONSTS

prefixLoop:
	INDICES(4)
	DENS
	PREFIXSUM

	// prefix[b+1] = prefix[b]·den, both coordinates reduced below 2p.
	KMUL01(0, BX, S_DEN, DX)
	CONDSUB(Consts_p2)
	STORE5(Z20, Z21, Z22, Z23, Z24, 640, BX)
	KMUL2(S_PSUM, DX, S_DEN+640, DX)
	CONDSUB(Consts_p4)
	CONDSUB(Consts_p2)
	STORE5(Z20, Z21, Z22, Z23, Z24, 960, BX)

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $640, BX
	DECQ CX
	JNZ  prefixLoop
	VZEROUPPER
	RET

// func G2Finish(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *[2]Vec, nb int, s *G2Scratch)
TEXT ·G2Finish(SB), NOSPLIT, $0-64
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
	IMULQ $640, AX
	ADDQ  AX, BX

finishLoop:
	INDICES(4)
	DENS
	PREFIXSUM

	// inv = prefix[b]·accInv (R'), A0 < 4p and A1 < 6p unreduced — λ's
	// products absorb them — with its sum.
	KMUL01(0, BX, S_ACCINV, DX)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_INV, DX)
	KMUL2(S_PSUM, DX, S_ACCINV+640, DX)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_INV+320, DX)
	ADDMEM(S_INV, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_INV+640, DX)

	// accInv = accInv·den (R'), < 2p, with its sum. KMUL2 reads only
	// the old sum, so c0 may overwrite A0 first.
	KMUL01(S_ACCINV, DX, S_DEN, DX)
	CONDSUB(Consts_p2)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_ACCINV, DX)
	KMUL2(S_ACCINV+640, DX, S_DEN+640, DX)
	CONDSUB(Consts_p4)
	CONDSUB(Consts_p2)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_ACCINV+320, DX)
	ADDMEM(S_ACCINV, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_ACCINV+640, DX)

	// num = y₂ − y₁ + p (< 2p each, sum < 4p); y₁ kept for y₃.
	GATHER4(64, SI, Z30)
	PACK(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_Y1, DX)
	GATHER4(64, DI, Z31)
	PACK(Z0, Z1, Z2, Z3, Z4)
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	STORE5(Z0, Z1, Z2, Z3, Z4, S_NUM, DX)
	GATHER4(96, SI, Z30)
	PACK(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_Y1+320, DX)
	GATHER4(96, DI, Z31)
	PACK(Z10, Z11, Z12, Z13, Z14)
	SUBP(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	NORM(Z10, Z11, Z12, Z13, Z14)
	STORE5(Z10, Z11, Z12, Z13, Z14, S_NUM+320, DX)
	MOV5(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	ADDREG(Z20, Z21, Z22, Z23, Z24, Z10, Z11, Z12, Z13, Z14)
	NORM(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_NUM+640, DX)

	// λ = num·inv, in the R domain (R·R'/R'), made canonical.
	KMUL01(S_NUM, DX, S_INV, DX)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_LAM0, DX)
	KMUL2(S_NUM+640, DX, S_INV+640, DX)
	CONDSUB(Consts_p4)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)

	// V = λ1, A = λ0. lamD = (16·λ0, 16·λ1, 16·((λ0 + λ1) mod p)), λ's
	// R'-domain twin; lamDiff = 16·(λ0 − λ1 + p) and lamSum = λ0 + λ1,
	// the operands of λ²'s A0.
	SHL4(Z20, Z21, Z22, Z23, Z24, Z5, Z6, Z7, Z8, Z9)
	STORE5(Z5, Z6, Z7, Z8, Z9, S_LAMD+320, DX)
	LOAD5(S_LAM0, DX, Z0, Z1, Z2, Z3, Z4)
	SHL4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9)
	STORE5(Z5, Z6, Z7, Z8, Z9, S_LAMD, DX)
	MOV5(Z0, Z1, Z2, Z3, Z4, Z10, Z11, Z12, Z13, Z14)
	SUBP(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	NORM(Z10, Z11, Z12, Z13, Z14)
	SHL4(Z10, Z11, Z12, Z13, Z14, Z10, Z11, Z12, Z13, Z14)
	STORE5(Z10, Z11, Z12, Z13, Z14, S_LAMDIFF, DX)
	ADDREG(Z20, Z21, Z22, Z23, Z24, Z0, Z1, Z2, Z3, Z4)
	NORM(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_LAMSUM, DX)
	CONDSUB(Consts_p)
	SHL4(Z20, Z21, Z22, Z23, Z24, Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_LAMD+640, DX)

	// x₃.A1 = 2λ0·16λ1 + 2p − x₁.A1 − x₂.A1 < 4p, made canonical.
	ADDREG(Z0, Z1, Z2, Z3, Z4, Z0, Z1, Z2, Z3, Z4)
	NORM(Z0, Z1, Z2, Z3, Z4)
	MONTMUL(S_LAMD+320, DX)
	ADDK(Consts_p2, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_X1+320, DX)
	SUBMEM(S_X2+320, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_X3A1, DX)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(32, SI, Z30)

	// x₃.A0 = (λ0 + λ1)·16(λ0 − λ1 + p) + 2p − x₁.A0 − x₂.A0, likewise.
	LOAD5(S_LAMSUM, DX, Z0, Z1, Z2, Z3, Z4)
	MONTMUL(S_LAMDIFF, DX)
	ADDK(Consts_p2, Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_X1, DX)
	SUBMEM(S_X2, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(0, SI, Z30)

	// e = x₁ − x₃ + p (< 2p each, sum < 4p).
	LOAD5(S_X1, DX, Z0, Z1, Z2, Z3, Z4)
	SUBP(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	NORM(Z0, Z1, Z2, Z3, Z4)
	STORE5(Z0, Z1, Z2, Z3, Z4, S_E, DX)
	LOAD5(S_X1+320, DX, Z10, Z11, Z12, Z13, Z14)
	LOAD5(S_X3A1, DX, Z20, Z21, Z22, Z23, Z24)
	SUBP(Z10, Z11, Z12, Z13, Z14, Z20, Z21, Z22, Z23, Z24)
	NORM(Z10, Z11, Z12, Z13, Z14)
	STORE5(Z10, Z11, Z12, Z13, Z14, S_E+320, DX)
	MOV5(Z0, Z1, Z2, Z3, Z4, Z20, Z21, Z22, Z23, Z24)
	ADDREG(Z20, Z21, Z22, Z23, Z24, Z10, Z11, Z12, Z13, Z14)
	NORM(Z20, Z21, Z22, Z23, Z24)
	STORE5(Z20, Z21, Z22, Z23, Z24, S_E+640, DX)

	// y₃ = e·lamD + p − y₁: A0 < 5p, A1 < 7p, made canonical.
	KMUL01(S_E, DX, S_LAMD, DX)
	ADDK(Consts_p, Z20, Z21, Z22, Z23, Z24, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_Y1, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p4)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(64, SI, Z30)
	KMUL2(S_E+640, DX, S_LAMD+640, DX)
	ADDK(Consts_p, Z20, Z21, Z22, Z23, Z24, Z20, Z21, Z22, Z23, Z24)
	SUBMEM(S_Y1+320, DX)
	NORM(Z20, Z21, Z22, Z23, Z24)
	CONDSUB(Consts_p4)
	CONDSUB(Consts_p2)
	CONDSUB(Consts_p)
	UNPACK(Z20, Z21, Z22, Z23, Z24)
	SCATTER4(96, SI, Z30)

	SUBQ $32, R8
	SUBQ $32, R9
	SUBQ $640, BX
	DECQ CX
	JNZ  finishLoop
	VZEROUPPER
	RET
