package curve

import "zkrownn/internal/bn254/fp"

// The G1 flush's lane passes (lanes.go has the layout, the domains and
// the toolkit). Bounds: every operand below is under 32p, and
// 2p·32p = 64p² < p·2²⁶⁰ because 64p < 2²⁶⁰; so every product is below
// 2p, and values are reduced to canonical form only on the way out.
//
//	g1LanePrefix    den = (x₂ − x₁ + p)·2⁴            (R', < 32p)
//	                prefix[b+1] = prefix[b]·den       (R', < 2p)
//	(scalar)        the eight lane totals prefix[nb] join the flush's
//	                fp.BatchInvertInto; their inverses come back ×2⁸
//	                into the R' domain as accInv
//	g1LaneFinish    backwards over blocks:
//	                inv = prefix[b]·accInv, accInv ·= den  (R', < 2p)
//	                λ  = (y₂ − y₁ + p)·inv             (R,  < 2p)
//	                x₃ = λ·(λ·2⁴) + 2p − x₁ − x₂       (R,  < 4p → canonical)
//	                y₃ = (x₁ + p − x₃)·(λ·2⁴) + p − y₁ (R,  < 3p → canonical)
//
// Six lane products per addition against the scalar path's six fp
// products; eight of them cost what about one and a half fp.Mul do.

// g1LaneScratch holds a block's lane temporaries between kernel steps,
// and accInv, the running inverse of g1LaneFinish's backward pass. The
// kernel reads the field offsets from go_asm.h.
type g1LaneScratch struct {
	accInv, den, inv, lamD, x1, x2, y1 laneVec
}

// g1Lanes is the lane path's scratch in a g1BatchAdder, allocated at the
// first flush that uses it.
type g1Lanes struct {
	bidx   []int32   // bucket index of each lane op
	prefix []laneVec // prefix[b]: product of the dens of blocks < b, per lane
	s      *g1LaneScratch
}

// prefixPass runs the lane ops' forward pass and writes the eight lane
// totals, as canonical fp raw values, into totals. ops lists the lanes'
// op positions in the flush, a whole number of blocks.
func (l *g1Lanes) prefixPass(buckets []G1Affine, idx []int32, pts []G1Affine, ops []int32, totals []fp.Element) {
	nb := len(ops) / laneWidth
	if cap(l.bidx) < len(ops) {
		// Sized for ops' capacity, the adder's batch, so that a flush
		// with more ops than the last does not allocate again.
		l.bidx = make([]int32, cap(ops))
		l.prefix = make([]laneVec, cap(ops)/laneWidth+1)
		l.prefix[0].setOne() // the kernel never writes prefix[0]
		l.s = new(g1LaneScratch)
	}
	bidx, prefix := l.bidx[:len(ops)], l.prefix[:nb+1]
	for i, k := range ops {
		bidx[i] = idx[k]
	}
	g1LanePrefix(&buckets[0], &pts[0], &bidx[0], &ops[0], &prefix[0], nb)
	for j := range totals {
		totals[j] = prefix[nb].get(j)
		reduceBelow2p(&totals[j])
	}
}

// finishPass runs the lane ops' backward pass given the inverses of the
// totals prefixPass wrote, and stores every lane op's sum in its bucket.
func (l *g1Lanes) finishPass(buckets []G1Affine, pts []G1Affine, ops []int32, invs []fp.Element) {
	nb := len(ops) / laneWidth
	for j := range invs {
		var e fp.Element
		e.Mul(&invs[j], &laneToRPrime)
		l.s.accInv.set(j, &e)
	}
	g1LaneFinish(&buckets[0], &pts[0], &l.bidx[0], &ops[0], &l.prefix[0], nb, l.s)
}
