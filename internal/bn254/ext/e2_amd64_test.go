//go:build amd64 && !purego

package ext

import "testing"

// TestE2PortableBranch turns the ADX gate off and runs FuzzE2Arith's
// seeds through the portable core, which on ADX hardware no other test
// reaches through Mul and Square.
func TestE2PortableBranch(t *testing.T) {
	defer func(v bool) { supportAdx = v }(supportAdx)
	supportAdx = false
	for _, seed := range append(lazyReductionSeeds(), e2ArithSeeds()...) {
		checkE2Arith(t, seed)
	}
}
