//go:build amd64 && !purego

package ext

import "zkrownn/internal/cpu"

// supportAdx gates the MULX/ADX F_p² kernels as fp's gates its
// Montgomery kernels; a variable rather than a constant so tests can run
// the portable branch on ADX hardware.
var supportAdx = cpu.X86HasADX

// pInvNeg is −p⁻¹ mod 2⁶⁴, the Montgomery constant of the kernels,
// derived from pLimbs by Newton's iteration: each step doubles the
// number of correct low bits, starting from the 3 that p₀⁻¹ ≡ p₀ (mod 8)
// gives, so five steps reach 96 ≥ 64.
var pInvNeg = func() uint64 {
	inv := pLimbs[0]
	for range 5 {
		inv *= 2 - pLimbs[0]*inv
	}
	return -inv
}()

// mulAsm sets z = x·y (e2_amd64.s). Requires ADX+BMI2.
//
//go:noescape
func mulAsm(z, x, y *E2)

// squareAsm sets z = x² (e2_amd64.s). Requires ADX+BMI2.
//
//go:noescape
func squareAsm(z, x *E2)

// Mul sets z = x·y and returns z.
func (z *E2) Mul(x, y *E2) *E2 {
	if supportAdx {
		mulAsm(z, x, y)
		return z
	}
	mulGeneric(z, x, y)
	return z
}

// Square sets z = x² and returns z.
func (z *E2) Square(x *E2) *E2 {
	if supportAdx {
		squareAsm(z, x)
		return z
	}
	squareGeneric(z, x)
	return z
}
