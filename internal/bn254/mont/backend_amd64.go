//go:build amd64 && !purego

package mont

import "zkrownn/internal/cpu"

// SupportADX gates every MULX/ADX kernel: this package's and ext's F_p²
// products. On a CPU without ADX+BMI2 they all fall back to the portable
// core. A variable rather than a constant so tests can run the fallback
// on ADX hardware.
var SupportADX = cpu.X86HasADX

// MulBackend names the multiplication backend selected at startup:
// "adx" for the MULX/ADCX/ADOX kernels, "generic" for the portable CIOS
// core (pre-ADX CPUs, non-amd64 targets, or any build with the purego
// tag).
func MulBackend() string {
	if SupportADX {
		return "adx"
	}
	return "generic"
}

// mul computes z = x·y/R mod q (mul_amd64.s). Requires ADX+BMI2.
//
//go:noescape
func mul(f *Field, z, x, y *[4]uint64)

// mulVec computes res[i] = a[i]·b[i]/R for i < n over contiguous arrays
// (mul_amd64.s): one assembly call per vector instead of one per
// element. res may alias a and/or b. Requires ADX+BMI2.
//
//go:noescape
func mulVec(f *Field, res, a, b *[4]uint64, n uint64)

// Mul sets z = x·y/R mod q, the Montgomery product: x·y in Montgomery
// form.
func (f *Field) Mul(z, x, y *[4]uint64) {
	if SupportADX {
		mul(f, z, x, y)
		return
	}
	f.mulGeneric(z, x, y)
}

// Square sets z = x²/R mod q. The assembly multiplier keeps every
// operand in registers, so squaring through mul already beats a separate
// squaring kernel; the fallback uses the dedicated no-carry
// squareGeneric.
func (f *Field) Square(z, x *[4]uint64) {
	if SupportADX {
		mul(f, z, x, x)
		return
	}
	f.squareGeneric(z, x)
}

// MulVec sets dst[i] = a[i]·b[i]/R mod q; a and b must hold at least
// len(dst) elements, and dst may alias either element-wise.
func (f *Field) MulVec(dst, a, b [][4]uint64) {
	if len(dst) == 0 {
		return
	}
	_, _ = a[len(dst)-1], b[len(dst)-1] // the kernel reads len(dst) of each
	if SupportADX {
		mulVec(f, &dst[0], &a[0], &b[0], uint64(len(dst)))
		return
	}
	f.mulVecGeneric(dst, a, b)
}
