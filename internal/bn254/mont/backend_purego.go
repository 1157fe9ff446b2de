//go:build !amd64 || purego

package mont

// MulBackend names the multiplication backend selected at startup; on
// this build it is always the portable generic core.
func MulBackend() string { return "generic" }

// Mul sets z = x·y/R mod q, the Montgomery product: x·y in Montgomery
// form.
func (f *Field) Mul(z, x, y *[4]uint64) { f.mulGeneric(z, x, y) }

// Square sets z = x²/R mod q with the dedicated no-carry squaring.
func (f *Field) Square(z, x *[4]uint64) { f.squareGeneric(z, x) }

// MulVec sets dst[i] = a[i]·b[i]/R mod q; a and b must hold at least
// len(dst) elements, and dst may alias either element-wise.
func (f *Field) MulVec(dst, a, b [][4]uint64) { f.mulVecGeneric(dst, a, b) }
