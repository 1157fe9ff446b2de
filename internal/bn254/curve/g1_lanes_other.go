//go:build !amd64 || purego

package curve

// supportIFMA is false off amd64 and under purego: the lane kernel is
// not compiled in, and every chord op takes the scalar formulas. A
// variable, as on amd64, so the tests that save and restore it build.
var supportIFMA = false

func lanePrefixAsm(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int) {
	panic("curve: lane kernel without AVX-512 IFMA")
}

func laneFinishAsm(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int, s *laneScratch) {
	panic("curve: lane kernel without AVX-512 IFMA")
}
