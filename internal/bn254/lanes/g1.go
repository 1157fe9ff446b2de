package lanes

// The G1 kernels: the chord step of a batch-affine addition over F_p,
// in the domains of lanes.go.
//
//	G1Prefix    den = (x₂ − x₁ + p)·2⁴              (R', < 32p)
//	            prefix[b+1] = den·prefix[b]         (R', < 2p)
//	(caller)    the eight lane totals prefix[nb] join the flush's one
//	            inversion; their inverses come back ×2⁸ into the R'
//	            domain as AccInv
//	G1Finish    backwards over blocks:
//	            inv = AccInv·prefix[b], AccInv ·= den   (R', < 2p)
//	            λ  = (y₂ − y₁ + p)·inv              (R,  < 2p)
//	            x₃ = λ·(λ·2⁴) + 2p − x₁ − x₂        (R,  < 4p → canonical)
//	            y₃ = (x₁ + p − x₃)·(λ·2⁴) + p − y₁  (R,  < 3p → canonical)
//
// Six lane products per addition against the scalar path's six fp
// products; eight of them cost what about one and a half fp.Mul do.
//
// Bounds, per lane product in kernel order: the register operand's
// bound, the memory operand's, and the product's. Every product is at
// most 64p² < p·2²⁶⁰, so every result is below 2p, and values are
// reduced to canonical form only on the way out. TestKernelBounds
// recomputes these rows from g1_amd64.s.
//
//	G1Prefix
//	  prefix[b+1] = den·prefix[b]          32p · 2p     64p²
//	G1Finish
//	  inv = AccInv·prefix[b]                2p · 2p      4p²
//	  AccInv ·= den                         2p · 32p    64p²
//	  λ = (y₂ − y₁ + p)·inv                 2p · 2p      4p²
//	  x₃: λ·(λ·2⁴)                          2p · 32p    64p²
//	  y₃: (x₁ + p − x₃)·(λ·2⁴)              2p · 32p    64p²

// G1Scratch holds a G1 block's lane temporaries between kernel steps,
// and AccInv, the running inverse of G1Finish's backward pass. The
// kernels read the field offsets from go_asm.h.
type G1Scratch struct {
	AccInv                     Vec
	den, inv, lamD, x1, x2, y1 Vec
}
