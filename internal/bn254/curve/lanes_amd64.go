//go:build amd64 && !purego

package curve

import "zkrownn/internal/cpu"

// supportIFMA gates the lane path of both flushes (lanes.go) on AVX-512
// IFMA; a variable rather than a constant so tests can run the portable
// branch on IFMA hardware.
var supportIFMA = cpu.X86HasAVX512IFMA

// g1LanePrefix runs the G1 forward pass over nb blocks
// (g1_lanes_amd64.s): for block b it sets prefix[b+1] = prefix[b]·den per
// lane, where lane j's op adds pts[pidx[8b+j]] into buckets[bidx[8b+j]].
// Requires AVX-512 IFMA.
//
//go:noescape
func g1LanePrefix(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int)

// g1LaneFinish runs the G1 backward pass from block nb−1 down to 0,
// given s.accInv, the inverses of the totals prefix[nb], and writes every
// lane op's sum into its bucket (g1_lanes_amd64.s). Requires AVX-512 IFMA.
//
//go:noescape
func g1LaneFinish(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int, s *g1LaneScratch)

// g2LanePrefix is g1LanePrefix over F_p² (g2_lanes_amd64.s): prefix[b]
// holds a lane element's A0 and A1. Requires AVX-512 IFMA.
//
//go:noescape
func g2LanePrefix(buckets, pts *G2Affine, bidx, pidx *int32, prefix *[2]laneVec, nb int, s *g2LaneScratch)

// g2LaneFinish is g1LaneFinish over F_p² (g2_lanes_amd64.s), given
// s.accInv. Requires AVX-512 IFMA.
//
//go:noescape
func g2LaneFinish(buckets, pts *G2Affine, bidx, pidx *int32, prefix *[2]laneVec, nb int, s *g2LaneScratch)
