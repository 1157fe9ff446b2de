// Package fr implements arithmetic in the BN254 scalar field F_r, where
//
//	r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//
// is the prime order of the alt_bn128 (BN128/BN254) pairing groups.
// F_r is the field of circuit wires, witnesses and polynomial
// coefficients in the Groth16 proof system; it has two-adicity 28, which
// enables radix-2 FFTs over evaluation domains of size up to 2^28.
//
// Elements are stored in Montgomery form as four 64-bit little-endian
// limbs. The arithmetic is internal/bn254/mont's, run with r's constant
// block, which it derives from the decimal modulus string rather than
// hard-coding; each method here forwards to it. F_r's own are the roots
// of unity (rou.go), SignedLimbs, and the vector kernels (vec.go).
package fr

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"zkrownn/internal/bn254/mont"
)

// Limbs is the number of 64-bit words in an element.
const Limbs = 4

// Bits is the size of the modulus in bits.
const Bits = 254

// Bytes is the size of a serialized element.
const Bytes = 32

// ModulusStr is the decimal representation of the field modulus.
const ModulusStr = "21888242871839275222246405745257275088548364400416034343698204186575808495617"

// Element is a field element in Montgomery form: the integer a is stored
// as a·R mod r with R = 2²⁵⁶. The zero value is the field's zero.
type Element [Limbs]uint64

// limbs is the raw-limb view of an Element that mont works on.
type limbs = [Limbs]uint64

// field is r's constant block.
var field = mont.New("fr", ModulusStr)

// MulBackend names the scalar multiplication backend selected at
// startup: "adx" or "generic" (mont.MulBackend).
func MulBackend() string { return mont.MulBackend() }

// Modulus returns a copy of the field modulus as a big.Int.
func Modulus() *big.Int { return field.Modulus() }

// NewElement returns an element set to the given uint64 value.
func NewElement(v uint64) (e Element) {
	field.SetUint64((*limbs)(&e), v)
	return e
}

// SetZero sets z to 0 and returns z.
func (z *Element) SetZero() *Element { *z = Element{}; return z }

// SetOne sets z to 1 (Montgomery form) and returns z.
func (z *Element) SetOne() *Element { *z = field.One(); return z }

// Set copies x into z and returns z.
func (z *Element) Set(x *Element) *Element { *z = *x; return z }

// SetUint64 sets z to v and returns z.
func (z *Element) SetUint64(v uint64) *Element { field.SetUint64((*limbs)(z), v); return z }

// SetInt64 sets z to v (which may be negative) and returns z.
func (z *Element) SetInt64(v int64) *Element { field.SetInt64((*limbs)(z), v); return z }

// SetBigInt sets z to v mod r and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element { field.SetBigInt((*limbs)(z), v); return z }

// SetRandom sets z to a uniformly random field element read from rng
// (crypto/rand.Reader when rng is nil) and returns z.
func (z *Element) SetRandom(rng io.Reader) (*Element, error) {
	if err := field.SetRandom((*limbs)(z), rng); err != nil {
		return nil, err
	}
	return z, nil
}

// SetBytes sets z from a big-endian byte slice (interpreted mod r) and
// returns z.
func (z *Element) SetBytes(b []byte) *Element { field.SetBytes((*limbs)(z), b); return z }

// BigInt writes the canonical (non-Montgomery) value of z into res and
// returns res.
func (z *Element) BigInt(res *big.Int) *big.Int { return field.BigInt(res, (*limbs)(z)) }

// ToBigInt returns the canonical value of z as a fresh big.Int.
func (z *Element) ToBigInt() *big.Int { return z.BigInt(new(big.Int)) }

// String returns the decimal representation of z.
func (z Element) String() string { return z.ToBigInt().String() }

// Format implements fmt.Formatter for %v/%s/%d.
func (z Element) Format(s fmt.State, verb rune) { fmt.Fprint(s, z.String()) }

// Bytes returns the canonical big-endian 32-byte encoding of z.
func (z *Element) Bytes() [Bytes]byte { return field.Bytes((*limbs)(z)) }

// RegularLimbs returns the canonical (non-Montgomery) little-endian
// 64-bit limbs of z, as needed for windowed scalar recoding.
func (z *Element) RegularLimbs() [Limbs]uint64 { return field.FromMont((*limbs)(z)) }

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return *z == Element{} }

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return *z == field.One() }

// Equal reports whether z == x.
func (z *Element) Equal(x *Element) bool { return *z == *x }

// Add sets z = x + y mod r and returns z.
func (z *Element) Add(x, y *Element) *Element {
	field.Add((*limbs)(z), (*limbs)(x), (*limbs)(y))
	return z
}

// Sub sets z = x - y mod r and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	field.Sub((*limbs)(z), (*limbs)(x), (*limbs)(y))
	return z
}

// Double sets z = 2x mod r and returns z.
func (z *Element) Double(x *Element) *Element { field.Double((*limbs)(z), (*limbs)(x)); return z }

// Neg sets z = -x mod r and returns z.
func (z *Element) Neg(x *Element) *Element { field.Neg((*limbs)(z), (*limbs)(x)); return z }

// Mul sets z = x·y mod r (Montgomery product) and returns z.
func (z *Element) Mul(x, y *Element) *Element {
	field.Mul((*limbs)(z), (*limbs)(x), (*limbs)(y))
	return z
}

// Square sets z = x² mod r and returns z.
func (z *Element) Square(x *Element) *Element { field.Square((*limbs)(z), (*limbs)(x)); return z }

// Inverse sets z = 1/x mod r (or 0 when x == 0) and returns z.
func (z *Element) Inverse(x *Element) *Element { field.Inverse((*limbs)(z), (*limbs)(x)); return z }

// Exp sets z = x^k mod r for a non-negative big.Int exponent and returns z.
func (z *Element) Exp(x *Element, k *big.Int) *Element {
	field.Exp((*limbs)(z), (*limbs)(x), k)
	return z
}

// BatchInvert returns the inverses of all elements in a, computed with
// Montgomery's trick (one inversion plus 3(n-1) multiplications). Zero
// entries map to zero.
func BatchInvert(a []Element) []Element {
	res := make([]Element, len(a))
	field.BatchInvertInto(mont.Limbs(a), mont.Limbs(res))
	return res
}

// SignedLimbs returns the limbs of z's balanced representative: the
// canonical value v itself when v ≤ (r−1)/2, otherwise r − v with neg
// set, so that z ≡ ±limbs with |limbs| < 2²⁵³. Small negative values —
// stored as r − x — come back as x, which is what lets the MSM recode a
// negative fixed-point witness value as cheaply as a positive one.
func (z *Element) SignedLimbs() (l [Limbs]uint64, neg bool) {
	v, q := z.RegularLimbs(), field.Q()
	var m [Limbs]uint64
	var b uint64
	m[0], b = bits.Sub64(q[0], v[0], 0)
	m[1], b = bits.Sub64(q[1], v[1], b)
	m[2], b = bits.Sub64(q[2], v[2], b)
	m[3], _ = bits.Sub64(q[3], v[3], b)
	// v > (r−1)/2 ⇔ r − v < v (r is odd, so the two are never equal).
	for i := Limbs - 1; i >= 0; i-- {
		if m[i] != v[i] {
			if m[i] < v[i] {
				return m, true
			}
			break
		}
	}
	return v, false
}
