//go:build amd64 && !purego

package lanes

// G1Prefix runs the G1 forward pass over nb blocks (g1_amd64.s): for
// block b it sets prefix[b+1] = prefix[b]·den per lane, where lane j's op
// adds the point at pts[pidx[8b+j]] into the bucket at
// buckets[bidx[8b+j]]. Requires AVX-512 IFMA.
//
//go:noescape
func G1Prefix(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *Vec, nb int)

// G1Finish runs the G1 backward pass from block nb−1 down to 0, given
// s.AccInv, the inverses of the totals prefix[nb], and writes every lane
// op's sum into its bucket (g1_amd64.s). Requires AVX-512 IFMA.
//
//go:noescape
func G1Finish(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *Vec, nb int, s *G1Scratch)

// G2Prefix is G1Prefix over F_p² (g2_amd64.s): prefix[b] holds a lane
// element's A0 and A1. Requires AVX-512 IFMA.
//
//go:noescape
func G2Prefix(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *[2]Vec, nb int, s *G2Scratch)

// G2Finish is G1Finish over F_p² (g2_amd64.s), given s.AccInv.
// Requires AVX-512 IFMA.
//
//go:noescape
func G2Finish(c *Consts, buckets, pts *uint64, bidx, pidx *int32, prefix *[2]Vec, nb int, s *G2Scratch)

// FrMul sets dst[i] = a[i]·b[i·bstride] over F_r for the nb·Width
// contiguous elements at dst and a (fr_amd64.s). bstride is 1, or 0 for
// a scalar: then b holds Width copies of it, which every block reads.
// dst may alias a or b element for element. Requires AVX-512 IFMA.
//
//go:noescape
func FrMul(c *Consts, dst, a, b *uint64, bstride, nb int)

// FrButterfly runs the FFT's twiddle butterfly on the nb·Width
// contiguous elements at a, b and tw (fr_amd64.s): t = b[i]·tw[i], then
// (a[i], b[i]) = (a[i] + t, a[i] − t). Requires AVX-512 IFMA.
//
//go:noescape
func FrButterfly(c *Consts, a, b, tw *uint64, nb int)
