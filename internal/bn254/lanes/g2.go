package lanes

// The G2 kernels: G1's algebra (g1.go) over F_p² = F_p[u]/(u² + 1), an
// element being two Vecs, A0 and A1, in the domains of lanes.go. A G2
// point is 128 bytes, so the kernels gather and scatter at qword indices
// 16·idx, X.A0/X.A1/Y.A0/Y.A1 at byte offsets 0/32/64/96.
//
// Products are Karatsuba, three lane products each: for a·b,
// v0 = a0·b0, v1 = a1·b1, v2 = (a0 + a1)·(b0 + b1), then
// c0 = v0 − v1 + 2p < 4p and c1 = v2 + 4p − v0 − v1 < 6p when every v
// is below 2p. So an operand travels with its sum (a lane triple A0,
// A1, A0 + A1), and the 2⁴ shift into the R' domain is applied to a sum
// only after it is reduced below p. A squaring is two products,
// λ² = (λ0 + λ1)·(λ0 − λ1) + 2·λ0·λ1·u. Per addition: prefix 3,
// backward pass 3 + 3, λ 3, λ² 2 and y₃ 3, seventeen lane products.
//
// Bounds, per lane product in kernel order: the register operand's
// bound, the memory operand's, and the product's. Every product is at
// most 64p² < p·2²⁶⁰, so every result is below 2p; every operand is
// normalized and below 32p < 2²⁶⁰, as IFMA needs. TestKernelBounds
// recomputes these rows from g2_amd64.s.
//
//	G2Prefix
//	  d = x₂ − x₁ + p: d0, d1 < 2p; d0 + d1 → CONDSUB 2p, p: < p
//	  den (R'): D0 = 16·d0, D1 = 16·d1 < 32p; DS = 16·(d0 + d1) < 16p
//	  prefix[b+1] = prefix[b]·den   P0·D0                  2p · 32p    64p²
//	                                P1·D1                  2p · 32p    64p²
//	                                (P0 + P1)·DS           4p · 16p    64p²
//	    c0 < 4p → CONDSUB 2p; c1 < 6p → CONDSUB 4p, 2p: both < 2p
//	G2Finish
//	  d and den as in G2Prefix
//	  inv = prefix[b]·AccInv        P0·A0                  2p · 2p      4p²
//	                                P1·A1                  2p · 2p      4p²
//	                                (P0 + P1)·(A0 + A1)    4p · 4p     16p²
//	    left unreduced: A0 < 4p, A1 < 6p, sum < 10p
//	  AccInv ·= den                 A0·D0                  2p · 32p    64p²
//	                                A1·D1                  2p · 32p    64p²
//	                                (A0 + A1)·DS           4p · 16p    64p²
//	    reduced as prefix: A0, A1 < 2p, sum < 4p
//	  λ = num·inv (R), num = y₂ − y₁ + p < 2p, sum < 4p
//	                                num0·inv0              2p · 4p      8p²
//	                                num1·inv1              2p · 6p     12p²
//	                                sums                   4p · 10p    40p²
//	    c0 → CONDSUB 2p, p; c1 → CONDSUB 4p, 2p, p: canonical
//	  x₃.A1 = 2λ0·16λ1 + 2p − x₁.A1 − x₂.A1                2p · 16p    32p²
//	  x₃.A0 = (λ0 + λ1)·16(λ0 − λ1 + p) + 2p − x₁.A0 − x₂.A0
//	                                                       2p · 32p    64p²
//	    each < 4p → CONDSUB 2p, p: canonical
//	  y₃ = e·λ + p − y₁, e = x₁ − x₃ + p < 2p, sum < 4p
//	                                e0·16λ0                2p · 16p    32p²
//	                                e1·16λ1                2p · 16p    32p²
//	                                (e0 + e1)·16((λ0 + λ1) mod p)
//	                                                       4p · 16p    64p²
//	    A0 < 5p, A1 < 7p → CONDSUB 4p, 2p, p: canonical
//
// The lanes' totals leave as canonical values (Consts.Get), and AccInv
// comes back canonical with its sum reduced mod p.

// G2Scratch holds a G2 block's lane temporaries between kernel steps,
// and AccInv, the running inverse of G2Finish's backward pass. A [3]Vec
// is a lane F_p² element with its A0 + A1. The kernels read the field
// offsets from go_asm.h.
type G2Scratch struct {
	AccInv                 [3]Vec
	den, inv, num, lamD, e [3]Vec
	x1, x2, y1             [2]Vec
	// psum is prefix[b]'s A0 + A1, w a Karatsuba's v0 + v1, lam0 λ's A0;
	// lamSum and lamDiff are λ²'s operands λ0 + λ1 and 16·(λ0 − λ1 + p),
	// and x3A1 is x₃'s A1.
	psum, w, lam0, lamSum, lamDiff, x3A1 Vec
}
