//go:build amd64 && !purego

package curve

import "zkrownn/internal/cpu"

// supportIFMA gates the lane path of the G1 flush (g1_lanes.go) on
// AVX-512 IFMA; a variable rather than a constant so tests can run the
// portable branch on IFMA hardware.
var supportIFMA = cpu.X86HasAVX512IFMA

// lanePrefixAsm runs the forward pass over nb blocks (g1_lanes_amd64.s):
// for block b it sets prefix[b+1] = prefix[b]·den per lane, where lane j's
// op adds pts[pidx[8b+j]] into buckets[bidx[8b+j]]. Requires AVX-512 IFMA.
//
//go:noescape
func lanePrefixAsm(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int)

// laneFinishAsm runs the backward pass from block nb−1 down to 0, given
// s.accInv, the inverses of the totals prefix[nb], and writes every
// lane op's sum into its bucket (g1_lanes_amd64.s). Requires AVX-512 IFMA.
//
//go:noescape
func laneFinishAsm(buckets, pts *G1Affine, bidx, pidx *int32, prefix *laneVec, nb int, s *laneScratch)
