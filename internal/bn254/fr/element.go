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
// limbs. All derived constants (Montgomery R, R², -p⁻¹ mod 2⁶⁴) are
// computed at package init from the decimal modulus string rather than
// hard-coded, which keeps the implementation auditable.
package fr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
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
// as a·R mod p with R = 2²⁵⁶. The zero value is the field's zero.
type Element [Limbs]uint64

var (
	qModulus big.Int // the modulus p
	q        [Limbs]uint64
	qInvNeg  uint64 // -p⁻¹ mod 2⁶⁴

	rSquare     Element // R² mod p (Montgomery form of R)
	one         Element // Montgomery form of 1
	zero        Element
	qMinusOne   big.Int // p-1
	qMinusTwo   big.Int // p-2, inversion exponent
	qHalfPlus1  big.Int // (p+1)/2, used for lexicographic ordering
	negOne      Element
	twoInv      Element                               // 1/2
	qBig2       = new(big.Int).Lsh(big.NewInt(1), 64) // 2⁶⁴
	initialized bool
)

func init() {
	if _, ok := qModulus.SetString(ModulusStr, 10); !ok {
		panic("fr: invalid modulus string")
	}
	fillLimbs(&qModulus, &q)

	// qInvNeg = -p⁻¹ mod 2⁶⁴.
	var pInv big.Int
	if pInv.ModInverse(&qModulus, qBig2) == nil {
		panic("fr: modulus not invertible mod 2⁶⁴")
	}
	pInv.Neg(&pInv).Mod(&pInv, qBig2)
	qInvNeg = pInv.Uint64()

	// R = 2²⁵⁶ mod p, R² mod p.
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, &qModulus)
	r2 := new(big.Int).Mul(r, r)
	r2.Mod(r2, &qModulus)
	fillLimbs(r, (*[Limbs]uint64)(&one))
	fillLimbs(r2, (*[Limbs]uint64)(&rSquare))

	qMinusOne.Sub(&qModulus, big.NewInt(1))
	qMinusTwo.Sub(&qModulus, big.NewInt(2))
	qHalfPlus1.Add(&qModulus, big.NewInt(1))
	qHalfPlus1.Rsh(&qHalfPlus1, 1)

	negOne.Neg(&one)
	var two Element
	two.SetUint64(2)
	twoInv.Inverse(&two)
	initialized = true
}

// fillLimbs writes the little-endian 64-bit limbs of v (assumed < 2²⁵⁶)
// into out.
func fillLimbs(v *big.Int, out *[Limbs]uint64) {
	var tmp big.Int
	tmp.Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := 0; i < Limbs; i++ {
		var w big.Int
		w.And(&tmp, mask)
		out[i] = w.Uint64()
		tmp.Rsh(&tmp, 64)
	}
	if tmp.Sign() != 0 {
		panic("fr: value does not fit in 4 limbs")
	}
}

// Modulus returns a copy of the field modulus as a big.Int.
func Modulus() *big.Int { return new(big.Int).Set(&qModulus) }

// NewElement returns an element set to the given uint64 value.
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// SetZero sets z to 0 and returns z.
func (z *Element) SetZero() *Element { *z = zero; return z }

// SetOne sets z to 1 (Montgomery form) and returns z.
func (z *Element) SetOne() *Element { *z = one; return z }

// Set copies x into z and returns z.
func (z *Element) Set(x *Element) *Element { *z = *x; return z }

// SetUint64 sets z to v and returns z.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v}
	return z.toMont()
}

// SetInt64 sets z to v (which may be negative) and returns z.
func (z *Element) SetInt64(v int64) *Element {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	return z.Neg(z)
}

// SetBigInt sets z to v mod p and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element {
	var t big.Int
	t.Mod(v, &qModulus)
	var limbs [Limbs]uint64
	fillLimbs(&t, &limbs)
	*z = Element(limbs)
	return z.toMont()
}

// SetString sets z to the value of the decimal (or 0x-prefixed hex)
// string s, reduced mod p.
func (z *Element) SetString(s string) (*Element, error) {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return nil, errors.New("fr: invalid number literal " + s)
	}
	return z.SetBigInt(v), nil
}

// MustSetString is SetString that panics on malformed input; intended for
// package-level constants.
func (z *Element) MustSetString(s string) *Element {
	e, err := z.SetString(s)
	if err != nil {
		panic(err)
	}
	return e
}

// BigInt writes the canonical (non-Montgomery) value of z into res and
// returns res.
func (z *Element) BigInt(res *big.Int) *big.Int {
	t := *z
	t.fromMont()
	res.SetUint64(0)
	for i := Limbs - 1; i >= 0; i-- {
		res.Lsh(res, 64)
		var w big.Int
		w.SetUint64(t[i])
		res.Or(res, &w)
	}
	return res
}

// ToBigInt returns the canonical value of z as a fresh big.Int.
func (z *Element) ToBigInt() *big.Int { return z.BigInt(new(big.Int)) }

// String returns the decimal representation of z.
func (z Element) String() string { return z.ToBigInt().String() }

// Format implements fmt.Formatter for %v/%s/%d.
func (z Element) Format(s fmt.State, verb rune) {
	fmt.Fprint(s, z.String())
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return *z == one }

// Equal reports whether z == x.
func (z *Element) Equal(x *Element) bool { return *z == *x }

// smallerThanModulus reports whether z (raw limbs) < p.
func (z *Element) smallerThanModulus() bool {
	for i := Limbs - 1; i >= 0; i-- {
		if z[i] < q[i] {
			return true
		}
		if z[i] > q[i] {
			return false
		}
	}
	return false // equal
}

// Neg sets z = -x mod p and returns z.
func (z *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	var b uint64
	z[0], b = bits.Sub64(q[0], x[0], 0)
	z[1], b = bits.Sub64(q[1], x[1], b)
	z[2], b = bits.Sub64(q[2], x[2], b)
	z[3], _ = bits.Sub64(q[3], x[3], b)
	return z
}

// toMont converts z (raw integer limbs) to Montgomery form in place.
func (z *Element) toMont() *Element { return z.Mul(z, &rSquare) }

// fromMont converts z from Montgomery form to raw integer limbs in place
// by multiplying with 1 (Montgomery product divides by R).
func (z *Element) fromMont() *Element {
	montOne := Element{1}
	return z.Mul(z, &montOne)
}

// Exp sets z = x^k mod p for a non-negative big.Int exponent and returns z.
func (z *Element) Exp(x *Element, k *big.Int) *Element {
	if k.Sign() < 0 {
		panic("fr: negative exponent")
	}
	var res Element
	res.SetOne()
	base := *x
	for i := k.BitLen() - 1; i >= 0; i-- {
		res.Square(&res)
		if k.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	return z.Set(&res)
}

// Inverse sets z = 1/x mod p (or 0 when x == 0) and returns z.
func (z *Element) Inverse(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	return z.Exp(x, &qMinusTwo)
}

// Halve sets z = z/2 mod p and returns z.
func (z *Element) Halve() *Element { return z.Mul(z, &twoInv) }

// Legendre returns the Legendre symbol of z: 1 if z is a non-zero square,
// -1 if it is a non-square, 0 if z == 0.
func (z *Element) Legendre() int {
	if z.IsZero() {
		return 0
	}
	var t Element
	t.Exp(z, new(big.Int).Rsh(&qMinusOne, 1))
	if t.IsOne() {
		return 1
	}
	return -1
}

// Select sets z = a if cond == 0, else z = b, and returns z.
func (z *Element) Select(cond int, a, b *Element) *Element {
	if cond == 0 {
		return z.Set(a)
	}
	return z.Set(b)
}

// Cmp compares the canonical values of z and x, returning -1, 0, or 1.
func (z *Element) Cmp(x *Element) int {
	a := *z
	b := *x
	a.fromMont()
	b.fromMont()
	for i := Limbs - 1; i >= 0; i-- {
		if a[i] < b[i] {
			return -1
		}
		if a[i] > b[i] {
			return 1
		}
	}
	return 0
}

// LexicographicallyLargest reports whether the canonical value of z is
// strictly greater than (p-1)/2. Used as the "sign" bit in compressed
// point encodings.
func (z *Element) LexicographicallyLargest() bool {
	v := z.ToBigInt()
	return v.Cmp(&qHalfPlus1) >= 0
}

// Bytes returns the canonical big-endian 32-byte encoding of z.
func (z *Element) Bytes() [Bytes]byte {
	var out [Bytes]byte
	t := *z
	t.fromMont()
	for i := 0; i < Limbs; i++ {
		binary.BigEndian.PutUint64(out[Bytes-8*(i+1):], t[i])
	}
	return out
}

// SetBytes sets z from a big-endian byte slice (interpreted mod p) and
// returns z.
func (z *Element) SetBytes(b []byte) *Element {
	var v big.Int
	v.SetBytes(b)
	return z.SetBigInt(&v)
}

// SetBytesCanonical sets z from exactly 32 big-endian bytes, requiring
// the value to be a canonical (< p) encoding. It works on limbs alone
// and allocates nothing: this is the decode under every raw-key point
// and every wire scalar.
func (z *Element) SetBytesCanonical(b []byte) error {
	if len(b) != Bytes {
		return errors.New("fr: invalid encoding length")
	}
	var v Element
	for i := 0; i < Limbs; i++ {
		v[i] = binary.BigEndian.Uint64(b[Bytes-8*(i+1):])
	}
	if !v.smallerThanModulus() {
		return errors.New("fr: encoding is not canonical")
	}
	*z = v
	z.toMont()
	return nil
}

// MulUint64 sets z = x * v mod p and returns z.
func (z *Element) MulUint64(x *Element, v uint64) *Element {
	var e Element
	e.SetUint64(v)
	return z.Mul(x, &e)
}

// BatchInvert computes the inverses of all elements in a using Montgomery's
// trick (a single field inversion plus 3(n-1) multiplications). Zero
// entries are mapped to zero.
func BatchInvert(a []Element) []Element {
	res := make([]Element, len(a))
	if len(a) == 0 {
		return res
	}
	zeroes := make([]bool, len(a))
	var acc Element
	acc.SetOne()
	for i := range a {
		if a[i].IsZero() {
			zeroes[i] = true
			continue
		}
		res[i] = acc
		acc.Mul(&acc, &a[i])
	}
	var accInv Element
	accInv.Inverse(&acc)
	for i := len(a) - 1; i >= 0; i-- {
		if zeroes[i] {
			continue
		}
		res[i].Mul(&res[i], &accInv)
		accInv.Mul(&accInv, &a[i])
	}
	return res
}

// RegularLimbs returns the canonical (non-Montgomery) little-endian
// 64-bit limbs of z, as needed for windowed scalar recoding.
func (z *Element) RegularLimbs() [Limbs]uint64 {
	t := *z
	t.fromMont()
	return [Limbs]uint64(t)
}

// SignedLimbs returns the limbs of z's balanced representative: the
// canonical value v itself when v ≤ (p−1)/2, otherwise p − v with neg
// set, so that z ≡ ±limbs with |limbs| < 2²⁵³. Small negative values —
// stored as p − x — come back as x, which is what lets the MSM recode a
// negative fixed-point witness value as cheaply as a positive one.
func (z *Element) SignedLimbs() (limbs [Limbs]uint64, neg bool) {
	v := z.RegularLimbs()
	var m [Limbs]uint64
	var b uint64
	m[0], b = bits.Sub64(q[0], v[0], 0)
	m[1], b = bits.Sub64(q[1], v[1], b)
	m[2], b = bits.Sub64(q[2], v[2], b)
	m[3], _ = bits.Sub64(q[3], v[3], b)
	// v > (p−1)/2 ⇔ p − v < v (p is odd, so the two are never equal).
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

// Bit returns bit i of the canonical value of z.
func (z *Element) Bit(i int) uint64 {
	l := z.RegularLimbs()
	if i < 0 || i >= Limbs*64 {
		return 0
	}
	return (l[i/64] >> (i % 64)) & 1
}
