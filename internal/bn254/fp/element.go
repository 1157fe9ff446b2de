// Package fp implements arithmetic in the BN254 base field F_p, where
//
//	p = 21888242871839275222246405745257275088696311157297823662689037894645226208583
//
// is the 254-bit prime underlying the alt_bn128 (BN128/BN254) pairing
// curve used by libsnark and therefore by the original ZKROWNN artifact.
//
// Elements are stored in Montgomery form as four 64-bit little-endian
// limbs. The arithmetic is internal/bn254/mont's, run with p's constant
// block, which it derives from the decimal modulus string rather than
// hard-coding; each method here forwards to it. Only Sqrt is F_p's own.
package fp

import (
	"fmt"
	"math/big"

	"zkrownn/internal/bn254/mont"
)

// Limbs is the number of 64-bit words in an element.
const Limbs = 4

// Bytes is the size of a serialized element.
const Bytes = 32

// ModulusStr is the decimal representation of the field modulus.
const ModulusStr = "21888242871839275222246405745257275088696311157297823662689037894645226208583"

// Element is a field element in Montgomery form: the integer a is stored
// as a·R mod p with R = 2²⁵⁶. The zero value is the field's zero.
type Element [Limbs]uint64

// limbs is the raw-limb view of an Element that mont works on.
type limbs = [Limbs]uint64

// field is p's constant block.
var field = mont.New("fp", ModulusStr)

// sqrtExp is (p+1)/4, the exponent of Sqrt's p ≡ 3 mod 4 shortcut.
var sqrtExp = func() *big.Int {
	p := field.Modulus()
	if p.Bit(1) == 0 {
		panic("fp: modulus must be ≡ 3 mod 4")
	}
	return p.Rsh(p.Add(p, big.NewInt(1)), 2)
}()

// Mont returns p's constant block, for the F_p² kernels in ext.
func Mont() *mont.Field { return &field }

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

// SetBigInt sets z to v mod p and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element { field.SetBigInt((*limbs)(z), v); return z }

// SetBytesCanonical sets z from exactly 32 big-endian bytes, requiring
// the value to be a canonical (< p) encoding; it allocates nothing.
func (z *Element) SetBytesCanonical(b []byte) error { return field.SetBytesCanonical((*limbs)(z), b) }

// MontBytes returns z's Montgomery limbs as 32 little-endian bytes, with
// no conversion out of Montgomery form.
func (z *Element) MontBytes() [Bytes]byte { return field.MontBytes((*limbs)(z)) }

// SetMontBytes sets z from MontBytes' encoding, requiring the limbs to
// be below p; it converts nothing and allocates nothing.
func (z *Element) SetMontBytes(b []byte) error { return field.SetMontBytes((*limbs)(z), b) }

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

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return *z == Element{} }

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return *z == field.One() }

// Equal reports whether z == x.
func (z *Element) Equal(x *Element) bool { return *z == *x }

// LexicographicallyLargest reports whether the canonical value of z is
// strictly greater than (p-1)/2. Used as the "sign" bit in compressed
// point encodings.
func (z *Element) LexicographicallyLargest() bool { return field.LexicographicallyLargest((*limbs)(z)) }

// Add sets z = x + y mod p and returns z.
func (z *Element) Add(x, y *Element) *Element {
	field.Add((*limbs)(z), (*limbs)(x), (*limbs)(y))
	return z
}

// Sub sets z = x - y mod p and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	field.Sub((*limbs)(z), (*limbs)(x), (*limbs)(y))
	return z
}

// Double sets z = 2x mod p and returns z.
func (z *Element) Double(x *Element) *Element { field.Double((*limbs)(z), (*limbs)(x)); return z }

// Neg sets z = -x mod p and returns z.
func (z *Element) Neg(x *Element) *Element { field.Neg((*limbs)(z), (*limbs)(x)); return z }

// Mul sets z = x·y mod p (Montgomery product) and returns z.
func (z *Element) Mul(x, y *Element) *Element {
	field.Mul((*limbs)(z), (*limbs)(x), (*limbs)(y))
	return z
}

// Square sets z = x² mod p and returns z.
func (z *Element) Square(x *Element) *Element { field.Square((*limbs)(z), (*limbs)(x)); return z }

// Inverse sets z = 1/x mod p (or 0 when x == 0) and returns z.
func (z *Element) Inverse(x *Element) *Element { field.Inverse((*limbs)(z), (*limbs)(x)); return z }

// Exp sets z = x^k mod p for a non-negative big.Int exponent and returns z.
func (z *Element) Exp(x *Element, k *big.Int) *Element {
	field.Exp((*limbs)(z), (*limbs)(x), k)
	return z
}

// Sqrt sets z to a square root of x if one exists and returns z, or
// returns nil when x is a non-residue. Uses the p ≡ 3 mod 4 shortcut.
func (z *Element) Sqrt(x *Element) *Element {
	var cand, check Element
	cand.Exp(x, sqrtExp)
	if !check.Square(&cand).Equal(x) {
		return nil
	}
	return z.Set(&cand)
}

// BatchInvert returns the inverses of all elements in a, computed with
// Montgomery's trick (one inversion plus 3(n-1) multiplications). Zero
// entries map to zero.
func BatchInvert(a []Element) []Element {
	res := make([]Element, len(a))
	BatchInvertInto(a, res)
	return res
}

// BatchInvertInto is BatchInvert writing into caller-owned storage, so
// hot loops (the MSM's batch-affine bucket adder) can amortize one
// scratch buffer across many flushes. res must have len(a) entries; a
// and res may not alias. Zero entries map to zero.
func BatchInvertInto(a, res []Element) { field.BatchInvertInto(mont.Limbs(a), mont.Limbs(res)) }
