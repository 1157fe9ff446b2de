//go:build amd64 && !purego

package ext

import (
	"testing"

	"zkrownn/internal/bn254/mont"
)

// TestE2PortableBranch turns the one ADX gate off and runs FuzzE2Arith's
// seeds through the portable cores, F_p²'s and F_p's, which on ADX
// hardware no other test reaches through Mul and Square.
func TestE2PortableBranch(t *testing.T) {
	defer func(v bool) { mont.SupportADX = v }(mont.SupportADX)
	mont.SupportADX = false
	for _, seed := range append(lazyReductionSeeds(), e2ArithSeeds()...) {
		checkE2Arith(t, seed)
	}
}
