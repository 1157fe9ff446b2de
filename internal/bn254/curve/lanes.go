package curve

import (
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/lanes"
)

// Backend names the arithmetic under the batch-affine flushes, the inner
// loop of every MSM and of the setup's fixed-base multiplication in
// both groups: "ifma" when chord additions run on the AVX-512 IFMA lanes
// (G1's and G2's flushes alike, package lanes), otherwise fp's
// multiplication backend, "adx" or "generic". Chosen by CPUID at
// startup; benchmark records carry it so numbers from different CPUs can
// be told apart.
func Backend() string {
	if lanes.SupportIFMA {
		return "ifma"
	}
	return fp.MulBackend()
}

var (
	// laneConsts is p's constant block, the lane kernels' modulus.
	laneConsts = lanes.NewConsts(fp.Modulus())
	// laneToRPrime is the fp element 2⁸: multiplying fp's inverse of a
	// lane total (an R'-domain raw value read as an R-domain one, i.e.
	// sixteen times the total) by it yields the total's inverse in the
	// R' domain.
	laneToRPrime = fp.NewElement(256)
)
