// The lane toolkit every kernel includes (g1_amd64.s, g2_amd64.s,
// fr_amd64.s): eight field elements at once, one per 64-bit lane of a
// ZMM register, multiplied with AVX-512 IFMA (VPMADD52LUQ/VPMADD52HUQ).
// An element is five 52-bit limbs, one register per limb (a Vec in
// memory: 5×64 bytes). The domains are in lanes.go, the bounds in g1.go,
// g2.go and fr.go, and TestKernelBounds interprets the macros below by
// the contracts their comments state. The modulus, p or r and written p
// below, is a Consts block that R11 points at: its limbs (Consts_p,
// Consts_p2 = 2p, Consts_p4 = 4p) and −p⁻¹ mod 2⁵² (Consts_inv),
// broadcast from memory. Only AVX512F and AVX512IFMA instructions on ZMM
// registers are used.
//
// Register map:
//
//	Z0–Z4     A, the register operand of MONTMUL
//	Z5–Z14    T0–T9, MONTMUL's accumulators; the product is T5–T9
//	Z16       m, the reduction multiplier
//	Z17       scratch
//	Z18       2⁵² − 1, the limb mask
//	Z19       zero
//	Z20–Z24   V, a second element
//	Z25–Z29   gathered 64-bit words W0–W3, CONDSUB's difference
//	Z30, Z31  qword indices of the block's buckets and points, or in a
//	          kernel over contiguous elements the transpose's
//	          permutations (TPERMS)
//	K1        gather/scatter and select mask
//
// Z15 is left alone. A kernel keeps its pointers in general registers:
// R11 the Consts block, SI buckets, DI points, R8/R9 the block's
// bucket/point indices, BX the prefix chain, CX the block count and DX
// its scratch. The kernels over contiguous elements (fr_amd64.s) keep
// their element pointers in SI, DI and BX and a packed operand in their
// stack frame.

// CONSTS sets the limb mask and the zero register.
#define CONSTS \
	VPTERNLOGQ $0xff, Z18, Z18, Z18; \
	VPSRLQ     $12, Z18, Z18;        \
	VPXORQ     Z19, Z19, Z19

// MADROW adds ai·b into t0..t5, b the element at off(base): the low 52
// bits of each limb product go to its own column, the high 52 to the next.
#define MADROW(ai, off, base, t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ off+0(base), ai, t0;   \
	VPMADD52HUQ off+0(base), ai, t1;   \
	VPMADD52LUQ off+64(base), ai, t1;  \
	VPMADD52HUQ off+64(base), ai, t2;  \
	VPMADD52LUQ off+128(base), ai, t2; \
	VPMADD52HUQ off+128(base), ai, t3; \
	VPMADD52LUQ off+192(base), ai, t3; \
	VPMADD52HUQ off+192(base), ai, t4; \
	VPMADD52LUQ off+256(base), ai, t4; \
	VPMADD52HUQ off+256(base), ai, t5

// REDROUND clears column t0 modulo 2⁵²: m = t0·(−p⁻¹) mod 2⁵² (IFMA
// reads only t0's low 52 bits), t0..t5 += m·p, and t0's carry moves up.
#define REDROUND(t0, t1, t2, t3, t4, t5) \
	VPXORQ           Z16, Z16, Z16;             \
	VPMADD52LUQ.BCST Consts_inv(R11), t0, Z16;  \
	VPMADD52LUQ.BCST Consts_p+0(R11), Z16, t0;  \
	VPMADD52HUQ.BCST Consts_p+0(R11), Z16, t1;  \
	VPMADD52LUQ.BCST Consts_p+8(R11), Z16, t1;  \
	VPMADD52HUQ.BCST Consts_p+8(R11), Z16, t2;  \
	VPMADD52LUQ.BCST Consts_p+16(R11), Z16, t2; \
	VPMADD52HUQ.BCST Consts_p+16(R11), Z16, t3; \
	VPMADD52LUQ.BCST Consts_p+24(R11), Z16, t3; \
	VPMADD52HUQ.BCST Consts_p+24(R11), Z16, t4; \
	VPMADD52LUQ.BCST Consts_p+32(R11), Z16, t4; \
	VPMADD52HUQ.BCST Consts_p+32(R11), Z16, t5; \
	VPSRLQ           $52, t0, Z17;              \
	VPADDQ           Z17, t1, t1

// NORM propagates carries (or borrows: the shift is arithmetic) so that
// r0..r3 are below 2⁵²; r4 keeps the sign of the whole value.
#define NORM(r0, r1, r2, r3, r4) \
	VPSRAQ $52, r0, Z17; VPADDQ Z17, r1, r1; VPANDQ Z18, r0, r0; \
	VPSRAQ $52, r1, Z17; VPADDQ Z17, r2, r2; VPANDQ Z18, r1, r1; \
	VPSRAQ $52, r2, Z17; VPADDQ Z17, r3, r3; VPANDQ Z18, r2, r2; \
	VPSRAQ $52, r3, Z17; VPADDQ Z17, r4, r4; VPANDQ Z18, r3, r3

// MONTMUL sets T5–T9 = A·b/2²⁶⁰ mod p, normalized and below
// A·b/2²⁶⁰ + p (so below 2p when A·b < p·2²⁶⁰), for b the element at
// off(base): the full 10-column product first, then five reduction
// rounds. Both operands must be normalized and below 2²⁶⁰.
#define MONTMUL(off, base) \
	VPXORQ Z5, Z5, Z5;    \
	VPXORQ Z6, Z6, Z6;    \
	VPXORQ Z7, Z7, Z7;    \
	VPXORQ Z8, Z8, Z8;    \
	VPXORQ Z9, Z9, Z9;    \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	MADROW(Z0, off, base, Z5, Z6, Z7, Z8, Z9, Z10);    \
	MADROW(Z1, off, base, Z6, Z7, Z8, Z9, Z10, Z11);   \
	MADROW(Z2, off, base, Z7, Z8, Z9, Z10, Z11, Z12);  \
	MADROW(Z3, off, base, Z8, Z9, Z10, Z11, Z12, Z13); \
	MADROW(Z4, off, base, Z9, Z10, Z11, Z12, Z13, Z14); \
	REDROUND(Z5, Z6, Z7, Z8, Z9, Z10);    \
	REDROUND(Z6, Z7, Z8, Z9, Z10, Z11);   \
	REDROUND(Z7, Z8, Z9, Z10, Z11, Z12);  \
	REDROUND(Z8, Z9, Z10, Z11, Z12, Z13); \
	REDROUND(Z9, Z10, Z11, Z12, Z13, Z14); \
	NORM(Z10, Z11, Z12, Z13, Z14)

// INDICES loads the block's bucket and point indices, scaled to qword
// indices (shift 3 for a 64-byte G1 point, 4 for a 128-byte G2 one),
// into Z30 and Z31.
#define INDICES(shift) \
	VPMOVZXDQ (R8), Z30; VPSLLQ $shift, Z30, Z30; \
	VPMOVZXDQ (R9), Z31; VPSLLQ $shift, Z31, Z31

// GATHER4 loads the four 64-bit limbs of the block's eight elements at
// off(base) + 8·idx into W0–W3.
#define GATHER4(off, base, idx) \
	KXNORW K1, K1, K1; VPGATHERQQ off+0(base)(idx*8), K1, Z25;  \
	KXNORW K1, K1, K1; VPGATHERQQ off+8(base)(idx*8), K1, Z26;  \
	KXNORW K1, K1, K1; VPGATHERQQ off+16(base)(idx*8), K1, Z27; \
	KXNORW K1, K1, K1; VPGATHERQQ off+24(base)(idx*8), K1, Z28

// SCATTER4 stores W0–W3 to the eight elements at off(base) + 8·idx.
#define SCATTER4(off, base, idx) \
	KXNORW K1, K1, K1; VPSCATTERQQ Z25, K1, off+0(base)(idx*8);  \
	KXNORW K1, K1, K1; VPSCATTERQQ Z26, K1, off+8(base)(idx*8);  \
	KXNORW K1, K1, K1; VPSCATTERQQ Z27, K1, off+16(base)(idx*8); \
	KXNORW K1, K1, K1; VPSCATTERQQ Z28, K1, off+24(base)(idx*8)

// TPERMS loads the two VPERMT2Q permutations of TLOAD4 and TSTORE4
// into Z30 and Z31: lo = (0 4 8 12 1 5 9 13), hi = (2 6 10 14 3 7 11 15).
#define TPERMS \
	VMOVDQU64 Consts_perm+0(R11), Z30; \
	VMOVDQU64 Consts_perm+64(R11), Z31

// TLOAD4 loads the eight contiguous 32-byte elements at off(base) into
// W0–W3 transposed, word k of element j into lane j of Wk: four 64-byte
// loads, each holding two elements, then a VPERMT2Q pair per two loads
// (T0 = words 0 and 1 of elements 0–3, T1 words 2 and 3; T2 and T3 the
// same of elements 4–7) and a VSHUFI64X2 per word joining their 256-bit
// halves. Needs TPERMS; Z29 is scratch.
#define TLOAD4(off, base) \
	VMOVDQU64  off+0(base), Z25;        \
	VMOVDQA64  Z25, Z26;                \
	VPERMT2Q   off+64(base), Z30, Z25;  \
	VPERMT2Q   off+64(base), Z31, Z26;  \
	VMOVDQU64  off+128(base), Z27;      \
	VMOVDQA64  Z27, Z28;                \
	VPERMT2Q   off+192(base), Z30, Z27; \
	VPERMT2Q   off+192(base), Z31, Z28; \
	VSHUFI64X2 $0xEE, Z27, Z25, Z29;    \
	VSHUFI64X2 $0x44, Z27, Z25, Z25;    \
	VSHUFI64X2 $0x44, Z28, Z26, Z27;    \
	VSHUFI64X2 $0xEE, Z28, Z26, Z28;    \
	VMOVDQA64  Z29, Z26

// TSTORE4 is TLOAD4 backwards: it stores W0–W3 to the eight contiguous
// elements at off(base), lane j of Wk as word k of element j. The same
// two steps invert themselves in the other order. Needs TPERMS; it
// clobbers W0–W3 and Z29.
#define TSTORE4(off, base) \
	VSHUFI64X2 $0x44, Z26, Z25, Z29; \
	VSHUFI64X2 $0xEE, Z26, Z25, Z25; \
	VSHUFI64X2 $0x44, Z28, Z27, Z26; \
	VSHUFI64X2 $0xEE, Z28, Z27, Z27; \
	VMOVDQA64  Z29, Z28;             \
	VPERMT2Q   Z26, Z30, Z29;        \
	VPERMT2Q   Z26, Z31, Z28;        \
	VMOVDQU64  Z29, off+0(base);     \
	VMOVDQU64  Z28, off+64(base);    \
	VMOVDQA64  Z25, Z29;             \
	VPERMT2Q   Z27, Z30, Z25;        \
	VPERMT2Q   Z27, Z31, Z29;        \
	VMOVDQU64  Z25, off+128(base);   \
	VMOVDQU64  Z29, off+192(base)

// PACK splits W0–W3, a value below 2²⁵⁶, into five 52-bit limbs.
// VPTERNLOGQ $0xA8 computes dst = (dst | Z17) & mask.
#define PACK(v0, v1, v2, v3, v4) \
	VPANDQ Z18, Z25, v0;                                                   \
	VPSRLQ $52, Z25, Z17; VPSLLQ $12, Z26, v1; VPTERNLOGQ $0xA8, Z18, Z17, v1; \
	VPSRLQ $40, Z26, Z17; VPSLLQ $24, Z27, v2; VPTERNLOGQ $0xA8, Z18, Z17, v2; \
	VPSRLQ $28, Z27, Z17; VPSLLQ $36, Z28, v3; VPTERNLOGQ $0xA8, Z18, Z17, v3; \
	VPSRLQ $16, Z28, v4

// UNPACK joins normalized limbs of a value below 2²⁵⁶ into W0–W3.
#define UNPACK(v0, v1, v2, v3, v4) \
	VPSLLQ $52, v1, Z25; VPORQ v0, Z25, Z25;                      \
	VPSRLQ $12, v1, Z26; VPSLLQ $40, v2, Z17; VPORQ Z17, Z26, Z26; \
	VPSRLQ $24, v2, Z27; VPSLLQ $28, v3, Z17; VPORQ Z17, Z27, Z27; \
	VPSRLQ $36, v3, Z28; VPSLLQ $16, v4, Z17; VPORQ Z17, Z28, Z28

// SHL4 sets d = s·2⁴ for s normalized and below 2²⁵⁶; d may be s.
#define SHL4(s0, s1, s2, s3, s4, d0, d1, d2, d3, d4) \
	VPSRLQ $48, s3, Z17; VPSLLQ $4, s4, d4; VPORQ Z17, d4, d4;                \
	VPSRLQ $48, s2, Z17; VPSLLQ $4, s3, d3; VPTERNLOGQ $0xA8, Z18, Z17, d3; \
	VPSRLQ $48, s1, Z17; VPSLLQ $4, s2, d2; VPTERNLOGQ $0xA8, Z18, Z17, d2; \
	VPSRLQ $48, s0, Z17; VPSLLQ $4, s1, d1; VPTERNLOGQ $0xA8, Z18, Z17, d1; \
	VPSLLQ $4, s0, d0; VPANDQ Z18, d0, d0

// SUBP sets a = a − b + p, unnormalized.
#define SUBP(a0, a1, a2, a3, a4, b0, b1, b2, b3, b4) \
	VPSUBQ b0, a0, a0; VPADDQ.BCST Consts_p+0(R11), a0, a0;  \
	VPSUBQ b1, a1, a1; VPADDQ.BCST Consts_p+8(R11), a1, a1;  \
	VPSUBQ b2, a2, a2; VPADDQ.BCST Consts_p+16(R11), a2, a2; \
	VPSUBQ b3, a3, a3; VPADDQ.BCST Consts_p+24(R11), a3, a3; \
	VPSUBQ b4, a4, a4; VPADDQ.BCST Consts_p+32(R11), a4, a4

// ADDREG sets a = a + b, unnormalized.
#define ADDREG(a0, a1, a2, a3, a4, b0, b1, b2, b3, b4) \
	VPADDQ b0, a0, a0; \
	VPADDQ b1, a1, a1; \
	VPADDQ b2, a2, a2; \
	VPADDQ b3, a3, a3; \
	VPADDQ b4, a4, a4

// MOV5 copies s into d.
#define MOV5(s0, s1, s2, s3, s4, d0, d1, d2, d3, d4) \
	VMOVDQA64 s0, d0; \
	VMOVDQA64 s1, d1; \
	VMOVDQA64 s2, d2; \
	VMOVDQA64 s3, d3; \
	VMOVDQA64 s4, d4

// ADDK sets d = s + k, unnormalized, for k the multiple of p at kp.
#define ADDK(kp, s0, s1, s2, s3, s4, d0, d1, d2, d3, d4) \
	VPADDQ.BCST kp+0(R11), s0, d0;  \
	VPADDQ.BCST kp+8(R11), s1, d1;  \
	VPADDQ.BCST kp+16(R11), s2, d2; \
	VPADDQ.BCST kp+24(R11), s3, d3; \
	VPADDQ.BCST kp+32(R11), s4, d4

// ADDMEM sets V = V + b, unnormalized, for b the element at off(base).
#define ADDMEM(off, base) \
	VPADDQ off+0(base), Z20, Z20;   \
	VPADDQ off+64(base), Z21, Z21;  \
	VPADDQ off+128(base), Z22, Z22; \
	VPADDQ off+192(base), Z23, Z23; \
	VPADDQ off+256(base), Z24, Z24

// SUBMEM sets V = V − b, unnormalized, for b the element at off(base).
#define SUBMEM(off, base) \
	VPSUBQ off+0(base), Z20, Z20;   \
	VPSUBQ off+64(base), Z21, Z21;  \
	VPSUBQ off+128(base), Z22, Z22; \
	VPSUBQ off+192(base), Z23, Z23; \
	VPSUBQ off+256(base), Z24, Z24

// CONDSUB replaces V by V − k where that is not negative, for k the
// multiple of p at kp (Consts_p, Consts_p2 or Consts_p4): V < 2k becomes V < k.
#define CONDSUB(kp) \
	VPSUBQ.BCST kp+0(R11), Z20, Z25;  \
	VPSUBQ.BCST kp+8(R11), Z21, Z26;  \
	VPSUBQ.BCST kp+16(R11), Z22, Z27; \
	VPSUBQ.BCST kp+24(R11), Z23, Z28; \
	VPSUBQ.BCST kp+32(R11), Z24, Z29; \
	NORM(Z25, Z26, Z27, Z28, Z29);    \
	VPCMPQ    $5, Z19, Z29, K1;       \
	VMOVDQA64 Z25, K1, Z20;           \
	VMOVDQA64 Z26, K1, Z21;           \
	VMOVDQA64 Z27, K1, Z22;           \
	VMOVDQA64 Z28, K1, Z23;           \
	VMOVDQA64 Z29, K1, Z24

#define LOAD5(off, base, r0, r1, r2, r3, r4) \
	VMOVDQU64 off+0(base), r0;   \
	VMOVDQU64 off+64(base), r1;  \
	VMOVDQU64 off+128(base), r2; \
	VMOVDQU64 off+192(base), r3; \
	VMOVDQU64 off+256(base), r4

#define STORE5(r0, r1, r2, r3, r4, off, base) \
	VMOVDQU64 r0, off+0(base);   \
	VMOVDQU64 r1, off+64(base);  \
	VMOVDQU64 r2, off+128(base); \
	VMOVDQU64 r3, off+192(base); \
	VMOVDQU64 r4, off+256(base)
