package curve

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
