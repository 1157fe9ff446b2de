package curve

import (
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/lanes"
)

// g1Lanes is the lane path's state in a g1BatchAdder (the kernels, their
// domains and bounds are in package lanes), allocated at the first flush
// that uses it.
type g1Lanes struct {
	bidx   []int32     // bucket index of each lane op
	prefix []lanes.Vec // prefix[b]: product of the dens of blocks < b, per lane
	s      *lanes.G1Scratch
}

// prefixPass runs the lane ops' forward pass and writes the eight lane
// totals, as canonical fp raw values, into totals. ops lists the lanes'
// op positions in the flush, a whole number of blocks.
func (l *g1Lanes) prefixPass(buckets []G1Affine, idx []int32, pts []G1Affine, ops []int32, totals []fp.Element) {
	nb := len(ops) / lanes.Width
	if cap(l.bidx) < len(ops) {
		// Sized for ops' capacity, the adder's batch, so that a flush
		// with more ops than the last does not allocate again.
		l.bidx = make([]int32, cap(ops))
		l.prefix = make([]lanes.Vec, cap(ops)/lanes.Width+1)
		laneConsts.SetOne(&l.prefix[0]) // the kernel never writes prefix[0]
		l.s = new(lanes.G1Scratch)
	}
	bidx, prefix := l.bidx[:len(ops)], l.prefix[:nb+1]
	for i, k := range ops {
		bidx[i] = idx[k]
	}
	lanes.G1Prefix(laneConsts, &buckets[0].X[0], &pts[0].X[0], &bidx[0], &ops[0], &prefix[0], nb)
	for j := range totals {
		totals[j] = laneConsts.Get(&prefix[nb], j)
	}
}

// finishPass runs the lane ops' backward pass given the inverses of the
// totals prefixPass wrote, and stores every lane op's sum in its bucket.
func (l *g1Lanes) finishPass(buckets []G1Affine, pts []G1Affine, ops []int32, invs []fp.Element) {
	nb := len(ops) / lanes.Width
	for j := range invs {
		var e fp.Element
		e.Mul(&invs[j], &laneToRPrime)
		l.s.AccInv.Set(j, (*[4]uint64)(&e))
	}
	lanes.G1Finish(laneConsts, &buckets[0].X[0], &pts[0].X[0], &l.bidx[0], &ops[0], &l.prefix[0], nb, l.s)
}
