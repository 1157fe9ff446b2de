package curve

import (
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
)

// The G2 flush's lane passes: G1's algebra (g1_lanes.go) over F_p² =
// F_p[u]/(u² + 1), an element being two laneVecs, A0 and A1, in the
// domains of lanes.go. A G2Affine is 128 bytes, so the kernels gather
// and scatter at qword indices 16·idx, X.A0/X.A1/Y.A0/Y.A1 at byte
// offsets 0/32/64/96.
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
// Bounds, per product (u·v < 84.6·p² keeps REDC below 2p; here every
// product is at most 64·p², so every v is below 2p):
//
//	step                operands (each side's bound)                      u·v
//	d = x₂ − x₁ + p     d0, d1 < 2p; d0 + d1 → CONDSUB 2p, p → < p
//	den (R')            D0 = 16·d0, D1 = 16·d1 < 32p; DS = 16·(d0 + d1) < 16p
//	prefix[b+1]         P0·D0, P1·D1: 2p · 32p                            64p²
//	  = prefix[b]·den   (P0 + P1)·DS: 4p · 16p                            64p²
//	                    c0 → CONDSUB 2p; c1 → CONDSUB 4p, 2p: both < 2p
//	inv = prefix·accInv Pi·Ai: 2p · 2p; sums 4p · 4p                      16p²
//	                    inv left unreduced: A0 < 4p, A1 < 6p, sum < 10p
//	accInv ·= den       as prefix                                         64p²
//	                    accInv reduced as prefix, < 2p
//	λ = num·inv (R)     num = y₂ − y₁ + p < 2p, sum < 4p: 2p · 6p; 4p · 10p 40p²
//	                    c0 → CONDSUB 2p, p; c1 → CONDSUB 4p, 2p, p: canonical
//	λ² c0               (λ0 + λ1) · 16·(λ0 − λ1 + p): 2p · 32p            64p²
//	λ² c1               2·λ0 · 16·λ1: 2p · 16p                            32p²
//	                    x₃ = c + 2p − x₁ − x₂ < 4p → CONDSUB 2p, p: canonical
//	y₃                  e = x₁ − x₃ + p; ei · 16·λi: 2p · 16p             32p²
//	  = e·λ + p − y₁    (e0 + e1) · 16·((λ0 + λ1) mod p): 4p · 16p        64p²
//	                    y₃ < 5p and < 7p → CONDSUB 4p, 2p, p: canonical
//
// Every operand is normalized and below 32p < 2²⁶⁰, as IFMA needs. The
// lanes' totals leave as canonical values, and accInv comes back
// canonical with its sum reduced mod p.

// g2LaneScratch holds a block's lane temporaries between kernel steps,
// and accInv, the running inverse of g2LaneFinish's backward pass. A
// [3]laneVec is a lane F_p² element with its A0 + A1 (see above). The
// kernels read the field offsets from go_asm.h.
type g2LaneScratch struct {
	accInv, den, inv, num, lamD, e [3]laneVec
	x1, x2, y1                     [2]laneVec
	// psum is prefix[b]'s A0 + A1, w a Karatsuba's v0 + v1, lam0 λ's A0;
	// lamSum and lamDiff are λ²'s operands λ0 + λ1 and 16·(λ0 − λ1 + p),
	// and x3A1 is x₃'s A1.
	psum, w, lam0, lamSum, lamDiff, x3A1 laneVec
}

// g2Lanes is the lane path's scratch in a g2BatchAdder, allocated at the
// first flush that uses it.
type g2Lanes struct {
	bidx   []int32      // bucket index of each lane op
	prefix [][2]laneVec // prefix[b]: product of the dens of blocks < b, per lane
	s      *g2LaneScratch
}

// prefixPass runs the lane ops' forward pass and writes the eight lane
// totals, as canonical fp raw values, into totals. ops lists the lanes'
// op positions in the flush, a whole number of blocks.
func (l *g2Lanes) prefixPass(buckets []G2Affine, idx []int32, pts []G2Affine, ops []int32, totals []ext.E2) {
	nb := len(ops) / laneWidth
	if cap(l.bidx) < len(ops) {
		// Sized for ops' capacity, the adder's batch, so that a flush
		// with more ops than the last does not allocate again.
		l.bidx = make([]int32, cap(ops))
		l.prefix = make([][2]laneVec, cap(ops)/laneWidth+1)
		l.prefix[0][0].setOne() // the kernel never writes prefix[0]
		l.s = new(g2LaneScratch)
	}
	bidx, prefix := l.bidx[:len(ops)], l.prefix[:nb+1]
	for i, k := range ops {
		bidx[i] = idx[k]
	}
	g2LanePrefix(&buckets[0], &pts[0], &bidx[0], &ops[0], &prefix[0], nb, l.s)
	for j := range totals {
		totals[j] = ext.E2{A0: prefix[nb][0].get(j), A1: prefix[nb][1].get(j)}
		reduceBelow2p(&totals[j].A0)
		reduceBelow2p(&totals[j].A1)
	}
}

// finishPass runs the lane ops' backward pass given the inverses of the
// totals prefixPass wrote, and stores every lane op's sum in its bucket.
func (l *g2Lanes) finishPass(buckets []G2Affine, pts []G2Affine, ops []int32, invs []ext.E2) {
	nb := len(ops) / laneWidth
	for j := range invs {
		var a0, a1, sum fp.Element
		a0.Mul(&invs[j].A0, &laneToRPrime)
		a1.Mul(&invs[j].A1, &laneToRPrime)
		sum.Add(&a0, &a1)
		l.s.accInv[0].set(j, &a0)
		l.s.accInv[1].set(j, &a1)
		l.s.accInv[2].set(j, &sum)
	}
	g2LaneFinish(&buckets[0], &pts[0], &l.bidx[0], &ops[0], &l.prefix[0], nb, l.s)
}
