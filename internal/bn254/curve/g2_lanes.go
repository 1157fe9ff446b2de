package curve

import (
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/lanes"
)

// g2Lanes is g1Lanes over F_p²: a lane element is two lanes.Vecs, A0
// and A1.
type g2Lanes struct {
	bidx   []int32        // bucket index of each lane op
	prefix [][2]lanes.Vec // prefix[b]: product of the dens of blocks < b, per lane
	s      *lanes.G2Scratch
}

// prefixPass runs the lane ops' forward pass and writes the eight lane
// totals, as canonical fp raw values, into totals. ops lists the lanes'
// op positions in the flush, a whole number of blocks.
func (l *g2Lanes) prefixPass(buckets []G2Affine, idx []int32, pts []G2Affine, ops []int32, totals []ext.E2) {
	nb := len(ops) / lanes.Width
	if cap(l.bidx) < len(ops) {
		// Sized for ops' capacity, the adder's batch, so that a flush
		// with more ops than the last does not allocate again.
		l.bidx = make([]int32, cap(ops))
		l.prefix = make([][2]lanes.Vec, cap(ops)/lanes.Width+1)
		laneConsts.SetOne(&l.prefix[0][0]) // the kernel never writes prefix[0]
		l.s = new(lanes.G2Scratch)
	}
	bidx, prefix := l.bidx[:len(ops)], l.prefix[:nb+1]
	for i, k := range ops {
		bidx[i] = idx[k]
	}
	lanes.G2Prefix(laneConsts, &buckets[0].X.A0[0], &pts[0].X.A0[0], &bidx[0], &ops[0], &prefix[0], nb, l.s)
	for j := range totals {
		totals[j] = ext.E2{A0: laneConsts.Get(&prefix[nb][0], j), A1: laneConsts.Get(&prefix[nb][1], j)}
	}
}

// finishPass runs the lane ops' backward pass given the inverses of the
// totals prefixPass wrote, and stores every lane op's sum in its bucket.
// The kernel reads AccInv with its A0 + A1, reduced mod p.
func (l *g2Lanes) finishPass(buckets []G2Affine, pts []G2Affine, ops []int32, invs []ext.E2) {
	nb := len(ops) / lanes.Width
	for j := range invs {
		var a0, a1, sum fp.Element
		a0.Mul(&invs[j].A0, &laneToRPrime)
		a1.Mul(&invs[j].A1, &laneToRPrime)
		sum.Add(&a0, &a1)
		l.s.AccInv[0].Set(j, (*[4]uint64)(&a0))
		l.s.AccInv[1].Set(j, (*[4]uint64)(&a1))
		l.s.AccInv[2].Set(j, (*[4]uint64)(&sum))
	}
	lanes.G2Finish(laneConsts, &buckets[0].X.A0[0], &pts[0].X.A0[0], &l.bidx[0], &ops[0], &l.prefix[0], nb, l.s)
}
