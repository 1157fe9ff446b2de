// Package mont is the one 4-limb Montgomery core under both BN254
// fields, F_p (package fp) and F_r (package fr), as libff runs both
// through one template, Fp_model<n, modulus>. A Field is the constant
// block of one modulus q, and every operation is a method on it that
// works on raw limbs: four little-endian 64-bit words holding a·R mod q
// for the integer a, with R = 2²⁵⁶. The assembly kernels (mul_amd64.s)
// read q and −q⁻¹ mod 2⁶⁴ through a register, at the go_asm.h offsets
// of the block's fields, so one text serves both moduli.
//
// fp and fr keep their own Element types, so the type system still
// keeps p and r elements apart, and forward each method here in one
// line the compiler inlines. Every operation takes canonical limbs
// (below q) and returns canonical limbs; outputs may alias inputs.
package mont

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"math/bits"
	"unsafe"
)

// Field is the constant block of one modulus q. The kernels address q
// and qInvNeg through a register; the rest serves the Go code.
type Field struct {
	q       [4]uint64 // q's limbs
	qInvNeg uint64    // −q⁻¹ mod 2⁶⁴

	rSquare   [4]uint64 // R² mod q: a Montgomery product by it enters Montgomery form
	rCube     [4]uint64 // R³ mod q: brings the binary-GCD inverse back to Montgomery form (inverse.go)
	one       [4]uint64 // R mod q, the Montgomery form of 1
	halfPlus1 [4]uint64 // (q+1)/2, the smallest lexicographically largest value

	modulus *big.Int
	name    string // prefixes errors and panics: "fp", "fr"
}

// New builds the constant block of the decimal modulus q, naming the
// field for its errors. q must be odd, for Montgomery reduction, and its
// top limb below 2⁶², which the no-carry products and the carry-free
// sums (q + q < 2²⁵⁶) rely on.
func New(name, modulus string) Field {
	m, ok := new(big.Int).SetString(modulus, 10)
	if !ok || m.Sign() <= 0 {
		panic(name + ": invalid modulus " + modulus)
	}
	if m.Bit(0) == 0 || m.BitLen() > 254 {
		panic(name + ": the modulus must be odd with its top limb below 2⁶²")
	}
	f := Field{modulus: m, name: name}
	f.q = limbsOf(m)
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	inv := new(big.Int).ModInverse(m, word)
	f.qInvNeg = inv.Sub(word, inv).Uint64()
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, m)
	f.one = limbsOf(r)
	r2 := new(big.Int).Mul(r, r)
	f.rSquare = limbsOf(r2.Mod(r2, m))
	r3 := r2.Mul(r2, r)
	f.rCube = limbsOf(r3.Mod(r3, m))
	half := new(big.Int).Add(m, big.NewInt(1))
	f.halfPlus1 = limbsOf(half.Rsh(half, 1))
	return f
}

// limbsOf returns the little-endian limbs of 0 ≤ v < 2²⁵⁶.
func limbsOf(v *big.Int) (l [4]uint64) {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := range l {
		l[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return l
}

// Limbs views a slice of elements as their raw limbs, without copying.
func Limbs[E ~[4]uint64](s []E) [][4]uint64 {
	return unsafe.Slice((*[4]uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// Modulus returns a copy of q.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.modulus) }

// Q returns q's limbs, for code outside the package that works on raw
// limbs (ext's F_p² kernels, fr's SignedLimbs).
func (f *Field) Q() [4]uint64 { return f.q }

// QInvNeg returns −q⁻¹ mod 2⁶⁴, for ext's F_p² kernels.
func (f *Field) QInvNeg() uint64 { return f.qInvNeg }

// One returns the Montgomery form of 1.
func (f *Field) One() [4]uint64 { return f.one }

// SetUint64 sets z to v.
func (f *Field) SetUint64(z *[4]uint64, v uint64) {
	*z = [4]uint64{v}
	f.Mul(z, z, &f.rSquare)
}

// SetInt64 sets z to v, which may be negative.
func (f *Field) SetInt64(z *[4]uint64, v int64) {
	if v >= 0 {
		f.SetUint64(z, uint64(v))
		return
	}
	f.SetUint64(z, uint64(-v))
	f.Neg(z, z)
}

// SetBigInt sets z to v mod q.
func (f *Field) SetBigInt(z *[4]uint64, v *big.Int) {
	var t big.Int
	*z = limbsOf(t.Mod(v, f.modulus))
	f.Mul(z, z, &f.rSquare)
}

// SetString sets z to the decimal (or 0x-prefixed hex) value of s mod q.
func (f *Field) SetString(z *[4]uint64, s string) error {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return errors.New(f.name + ": invalid number literal " + s)
	}
	f.SetBigInt(z, v)
	return nil
}

// SetRandom sets z to a uniformly random element read from rng
// (crypto/rand.Reader when rng is nil).
func (f *Field) SetRandom(z *[4]uint64, rng io.Reader) error {
	if rng == nil {
		rng = rand.Reader
	}
	v, err := rand.Int(rng, f.modulus)
	if err != nil {
		return err
	}
	f.SetBigInt(z, v)
	return nil
}

// FromMont returns the canonical integer limbs of x: its Montgomery
// product with 1 divides by R.
func (f *Field) FromMont(x *[4]uint64) [4]uint64 {
	t := [4]uint64{1}
	f.Mul(&t, x, &t)
	return t
}

// BigInt writes the canonical value of x into res and returns res.
func (f *Field) BigInt(res *big.Int, x *[4]uint64) *big.Int {
	b := f.Bytes(x)
	return res.SetBytes(b[:])
}

// Bytes returns the canonical big-endian 32-byte encoding of x.
func (f *Field) Bytes(x *[4]uint64) (out [32]byte) {
	t := f.FromMont(x)
	for i := range t {
		binary.BigEndian.PutUint64(out[24-8*i:], t[i])
	}
	return out
}

// SetBytes sets z to the big-endian integer b mod q.
func (f *Field) SetBytes(z *[4]uint64, b []byte) {
	var v big.Int
	f.SetBigInt(z, v.SetBytes(b))
}

// SetBytesCanonical sets z from exactly 32 big-endian bytes holding a
// value below q, and leaves z alone otherwise. It works on limbs and
// allocates nothing: this is the decode under every raw-key point and
// every wire scalar.
func (f *Field) SetBytesCanonical(z *[4]uint64, b []byte) error {
	if len(b) != 32 {
		return errors.New(f.name + ": invalid encoding length")
	}
	var v [4]uint64
	for i := range v {
		v[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	if !f.below(&v) {
		return errors.New(f.name + ": encoding is not canonical")
	}
	f.Mul(z, &v, &f.rSquare)
	return nil
}

// MontBytes returns x's raw limbs as 32 little-endian bytes: the
// Montgomery form itself, unconverted. It is the coordinate encoding of
// the raw proving key, which stores points in the form the prover
// computes in.
func (f *Field) MontBytes(x *[4]uint64) (out [32]byte) {
	for i := range x {
		binary.LittleEndian.PutUint64(out[8*i:], x[i])
	}
	return out
}

// SetMontBytes sets z from exactly 32 bytes of little-endian raw limbs
// (MontBytes' encoding) below q, and leaves z alone otherwise. The
// bytes already are Montgomery form, so it multiplies nothing: this is
// the decode under every raw-key point.
func (f *Field) SetMontBytes(z *[4]uint64, b []byte) error {
	if len(b) != 32 {
		return errors.New(f.name + ": invalid encoding length")
	}
	v := [4]uint64{
		binary.LittleEndian.Uint64(b[0:]),
		binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]),
		binary.LittleEndian.Uint64(b[24:]),
	}
	if !f.below(&v) {
		return errors.New(f.name + ": Montgomery limbs are not canonical")
	}
	*z = v
	return nil
}

// below reports whether the integer x is below q.
func (f *Field) below(x *[4]uint64) bool {
	_, b := bits.Sub64(x[0], f.q[0], 0)
	_, b = bits.Sub64(x[1], f.q[1], b)
	_, b = bits.Sub64(x[2], f.q[2], b)
	_, b = bits.Sub64(x[3], f.q[3], b)
	return b == 1
}

// Neg sets z = −x mod q.
func (f *Field) Neg(z, x *[4]uint64) {
	if *x == ([4]uint64{}) {
		*z = *x
		return
	}
	var b uint64
	z[0], b = bits.Sub64(f.q[0], x[0], 0)
	z[1], b = bits.Sub64(f.q[1], x[1], b)
	z[2], b = bits.Sub64(f.q[2], x[2], b)
	z[3], _ = bits.Sub64(f.q[3], x[3], b)
}

// Halve sets z = x/2 mod q. Halving the Montgomery limbs halves the
// value: x is even, or x + q is, and (x + q)/2 < q needs no fifth limb.
func (f *Field) Halve(z, x *[4]uint64) {
	m := -(x[0] & 1)
	t0, c := bits.Add64(x[0], f.q[0]&m, 0)
	t1, c := bits.Add64(x[1], f.q[1]&m, c)
	t2, c := bits.Add64(x[2], f.q[2]&m, c)
	t3, _ := bits.Add64(x[3], f.q[3]&m, c)
	z[0] = t0>>1 | t1<<63
	z[1] = t1>>1 | t2<<63
	z[2] = t2>>1 | t3<<63
	z[3] = t3 >> 1
}

// Exp sets z = x^k for a non-negative exponent k, with a fixed 4-bit
// window: x⁰…x¹⁵ are precomputed, and each nibble of k, most significant
// first, costs four squarings and at most one product.
func (f *Field) Exp(z, x *[4]uint64, k *big.Int) {
	if k.Sign() < 0 {
		panic(f.name + ": negative exponent")
	}
	var table [16][4]uint64
	table[0], table[1] = f.one, *x
	for i := 2; i < len(table); i++ {
		f.Mul(&table[i], &table[i-1], x)
	}
	// A word holds a whole number of nibbles, so none straddles two.
	words := k.Bits()
	nibble := func(i int) uint {
		return uint(words[4*i/bits.UintSize]>>(4*i%bits.UintSize)) & 15
	}
	top := (k.BitLen()+3)/4 - 1
	if top < 0 {
		*z = f.one
		return
	}
	res := table[nibble(top)]
	for i := top - 1; i >= 0; i-- {
		f.Square(&res, &res)
		f.Square(&res, &res)
		f.Square(&res, &res)
		f.Square(&res, &res)
		if d := nibble(i); d != 0 {
			f.Mul(&res, &res, &table[d])
		}
	}
	*z = res
}

// Legendre returns x's Legendre symbol: 1 for a non-zero square, −1 for
// a non-square, 0 for zero.
func (f *Field) Legendre(x *[4]uint64) int {
	if *x == ([4]uint64{}) {
		return 0
	}
	var t [4]uint64
	f.Exp(&t, x, new(big.Int).Rsh(f.modulus, 1)) // (q−1)/2
	if t == f.one {
		return 1
	}
	return -1
}

// Cmp compares the canonical values of x and y: −1, 0 or 1.
func (f *Field) Cmp(x, y *[4]uint64) int {
	a, b := f.FromMont(x), f.FromMont(y)
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// LexicographicallyLargest reports whether the canonical value of x is
// above (q−1)/2, the sign bit of compressed point encodings.
func (f *Field) LexicographicallyLargest(x *[4]uint64) bool {
	v := f.FromMont(x)
	_, b := bits.Sub64(v[0], f.halfPlus1[0], 0)
	_, b = bits.Sub64(v[1], f.halfPlus1[1], b)
	_, b = bits.Sub64(v[2], f.halfPlus1[2], b)
	_, b = bits.Sub64(v[3], f.halfPlus1[3], b)
	return b == 0
}

// BatchInvertInto sets res[i] = 1/a[i] with Montgomery's trick, one
// inversion and 3(n−1) products, mapping zero to zero. res must have
// len(a) entries and must not alias a; hot loops (the MSM's batch-affine
// bucket adder) reuse one res across many calls.
func (f *Field) BatchInvertInto(a, res [][4]uint64) {
	if len(a) != len(res) {
		panic(f.name + ": BatchInvertInto length mismatch")
	}
	if len(a) == 0 {
		return
	}
	acc := f.one
	for i := range a {
		if a[i] == ([4]uint64{}) {
			res[i] = [4]uint64{}
			continue
		}
		res[i] = acc
		f.Mul(&acc, &acc, &a[i])
	}
	f.Inverse(&acc, &acc)
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] == ([4]uint64{}) {
			continue
		}
		f.Mul(&res[i], &res[i], &acc)
		f.Mul(&acc, &acc, &a[i])
	}
}
