//go:build amd64 && !purego

package ext

import (
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/mont"
)

// pInvNeg is −p⁻¹ mod 2⁶⁴, the Montgomery constant of the kernels, from
// fp's constant block.
var pInvNeg = fp.Mont().QInvNeg()

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
	if mont.SupportADX {
		mulAsm(z, x, y)
		return z
	}
	mulGeneric(z, x, y)
	return z
}

// Square sets z = x² and returns z.
func (z *E2) Square(x *E2) *E2 {
	if mont.SupportADX {
		squareAsm(z, x)
		return z
	}
	squareGeneric(z, x)
	return z
}
