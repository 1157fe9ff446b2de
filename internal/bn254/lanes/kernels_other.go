//go:build !amd64 || purego

package lanes

// Off amd64 and under purego the kernels are not compiled in and
// SupportIFMA is false, so no caller reaches these.

func G1Prefix(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *Vec, nb int) {
	panic("lanes: kernel without AVX-512 IFMA")
}

func G1Finish(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *Vec, nb int, s *G1Scratch) {
	panic("lanes: kernel without AVX-512 IFMA")
}

func G2Prefix(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *[2]Vec, nb int, s *G2Scratch) {
	panic("lanes: kernel without AVX-512 IFMA")
}

func G2Finish(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *[2]Vec, nb int, s *G2Scratch) {
	panic("lanes: kernel without AVX-512 IFMA")
}

func FrMul(c *Consts, dst, a, b *uint64, bstride, nb int) {
	panic("lanes: kernel without AVX-512 IFMA")
}

func FrButterfly(c *Consts, a, b, tw *uint64, nb int) {
	panic("lanes: kernel without AVX-512 IFMA")
}
