package curve

import "zkrownn/internal/bn254/fr"

// The reference G2 membership test: [r]Q = ∞ by a 254-bit double-and-add,
// which is what IsInSubgroup was before it became the endomorphism
// criterion. It is the definition of "order divides r" and nothing else,
// kept here as the oracle TestG2MembershipMatchesReference holds the
// production check to.
func refG2IsInSubgroup(p *G2Affine) bool {
	if !p.IsOnCurve() {
		return false
	}
	var j G2Jac
	j.FromAffine(p)
	j.ScalarMulBig(&j, GroupOrder())
	return j.IsInfinity()
}

// scalarMulBinary is the plain double-and-add ladder, the cross-check
// oracle for the windowed and fixed-base scalar multiplications.
func (p *G1Jac) scalarMulBinary(q *G1Jac, k *fr.Element) *G1Jac {
	limbs := k.RegularLimbs()
	var res G1Jac
	res.SetInfinity()
	started := false
	for i := fr.Limbs*64 - 1; i >= 0; i-- {
		if started {
			res.DoubleAssign()
		}
		if (limbs[i/64]>>(i%64))&1 == 1 {
			res.AddAssign(q)
			started = true
		}
	}
	return p.Set(&res)
}

// scalarMulBinary is the same ladder on the twist.
func (p *G2Jac) scalarMulBinary(q *G2Jac, k *fr.Element) *G2Jac {
	limbs := k.RegularLimbs()
	var res G2Jac
	res.SetInfinity()
	started := false
	for i := fr.Limbs*64 - 1; i >= 0; i-- {
		if started {
			res.DoubleAssign()
		}
		if (limbs[i/64]>>(i%64))&1 == 1 {
			res.AddAssign(q)
			started = true
		}
	}
	return p.Set(&res)
}
