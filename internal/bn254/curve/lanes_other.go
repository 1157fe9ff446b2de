//go:build !amd64 || purego

package curve

// supportIFMA is false off amd64 and under purego: the lane kernels are
// not compiled in, and every chord op takes the scalar formulas. A
// variable, as on amd64, so the tests that save and restore it build.
var supportIFMA = false

func g1LanePrefix(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int) {
	panic("curve: lane kernel without AVX-512 IFMA")
}

func g1LaneFinish(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int, s *g1LaneScratch) {
	panic("curve: lane kernel without AVX-512 IFMA")
}

func g2LanePrefix(buckets, pts *G2Affine, bidx, pidx *int32, prefix *[2]laneVec, nb int, s *g2LaneScratch) {
	panic("curve: lane kernel without AVX-512 IFMA")
}

func g2LaneFinish(buckets, pts *G2Affine, bidx, pidx *int32, prefix *[2]laneVec, nb int, s *g2LaneScratch) {
	panic("curve: lane kernel without AVX-512 IFMA")
}
