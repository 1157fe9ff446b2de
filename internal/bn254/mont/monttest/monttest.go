// Package monttest is the one test suite of the Montgomery core in
// internal/bn254/mont, run once per modulus. Its table has two rows, fp
// and fr: each of their test files holds a one-line test per check here
// that hands over its constant block and its math/big oracle
// (refimpl.Fp, refimpl.Fr). It is test support, for _test.go files only.
//
// The oracle checks decode operands as raw Montgomery limbs and read
// results back the same way, with R⁻¹ applied in math/big: the
// branch-free reductions select on raw limbs, so that is where the
// boundaries sit, and the comparison does not lean on the Mul it is
// checking.
package monttest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"zkrownn/internal/bn254/mont"
)

// bigOne is the integer 1; nothing writes to it.
var bigOne = big.NewInt(1)

// Oracle is the math/big field the suite holds the core to; refimpl's
// Field satisfies it.
type Oracle interface {
	Reduce(a *big.Int) *big.Int
	Add(a, b *big.Int) *big.Int
	Sub(a, b *big.Int) *big.Int
	Neg(a *big.Int) *big.Int
	Mul(a, b *big.Int) *big.Int
	Inverse(a *big.Int) *big.Int
}

// Field is one row of the suite: a constant block and its oracle.
type Field struct {
	*mont.Field
	Oracle Oracle
	m      *big.Int // the modulus
	rInv   *big.Int // R⁻¹ mod m for R = 2²⁵⁶
}

// New pairs the constant block f with its oracle o.
func New(f *mont.Field, o Oracle) *Field {
	return &Field{Field: f, Oracle: o, m: f.Modulus(), rInv: o.Inverse(new(big.Int).Lsh(big.NewInt(1), 256))}
}

// Random returns a pseudo-random element drawn from rng.
func (f *Field) Random(rng *rand.Rand) (z [4]uint64) {
	var v big.Int
	words := make([]byte, 40)
	rng.Read(words)
	f.SetBigInt(&z, v.SetBytes(words))
	return z
}

// Raw decodes 32 big-endian bytes as an element's raw limbs, reduced mod
// the modulus as every element is.
func (f *Field) Raw(b []byte) (z [4]uint64) {
	var buf [32]byte
	f.Oracle.Reduce(new(big.Int).SetBytes(b)).FillBytes(buf[:])
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return z
}

// Value returns the integer z stands for: raw limbs · R⁻¹ mod m.
func (f *Field) Value(z *[4]uint64) *big.Int {
	return f.Oracle.Mul(rawInt(z), f.rInv)
}

// Holds reports whether z is canonical and stands for want.
func (f *Field) Holds(z *[4]uint64, want *big.Int) bool {
	return rawInt(z).Cmp(f.m) < 0 && f.Value(z).Cmp(want) == 0
}

// rawInt returns z's raw limbs as an integer.
func rawInt(z *[4]uint64) *big.Int {
	var buf [32]byte
	for i := range z {
		binary.BigEndian.PutUint64(buf[24-8*i:], z[i])
	}
	return new(big.Int).SetBytes(buf[:])
}

// canonical returns the canonical value of z, through the core.
func (f *Field) canonical(z *[4]uint64) *big.Int { return f.BigInt(new(big.Int), z) }

// MontgomeryRoundTrip checks that SetBigInt and BigInt invert each other.
func MontgomeryRoundTrip(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		var v big.Int
		b := make([]byte, 48)
		rng.Read(b)
		v.Mod(v.SetBytes(b), f.m)
		var e [4]uint64
		f.SetBigInt(&e, &v)
		if got := f.canonical(&e); got.Cmp(&v) != 0 {
			t.Fatalf("round trip failed: want %v got %v", &v, got)
		}
	}
}

// AddSubMulAgainstBig checks random sums, differences and products
// against math/big.
func AddSubMulAgainstBig(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(2))
	for range 2000 {
		a, b := f.Random(rng), f.Random(rng)
		ab, bb := f.canonical(&a), f.canonical(&b)
		var sum, diff, prod [4]uint64
		f.Add(&sum, &a, &b)
		f.Sub(&diff, &a, &b)
		f.Mul(&prod, &a, &b)
		if f.canonical(&sum).Cmp(f.Oracle.Add(ab, bb)) != 0 {
			t.Fatalf("add mismatch: %v + %v", ab, bb)
		}
		if f.canonical(&diff).Cmp(f.Oracle.Sub(ab, bb)) != 0 {
			t.Fatalf("sub mismatch: %v - %v", ab, bb)
		}
		if f.canonical(&prod).Cmp(f.Oracle.Mul(ab, bb)) != 0 {
			t.Fatalf("mul mismatch: %v * %v", ab, bb)
		}
	}
}

// AddSubBoundaries walks the conditional reductions across their edges:
// sums that land on the modulus exactly and one to either side of it,
// differences of zero and of minus one, and every way the result can
// alias an operand.
func AddSubBoundaries(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(3))
	check := func(what string, got *[4]uint64, want *big.Int) {
		t.Helper()
		if w := f.Oracle.Reduce(want); f.canonical(got).Cmp(w) != 0 {
			t.Fatalf("%s: got %v want %v", what, f.canonical(got), w)
		}
	}
	for i := range 200 {
		var a [4]uint64
		if i > 0 {
			a = f.Random(rng)
		}
		var neg [4]uint64
		f.Neg(&neg, &a)
		for _, off := range []int64{-1, 0, 1} {
			var d, b, z [4]uint64
			f.SetInt64(&d, off)
			f.Add(&b, &neg, &d) // b = -a + off
			ab, bb := f.canonical(&a), f.canonical(&b)

			f.Add(&z, &a, &b)
			check("a + (-a+off)", &z, new(big.Int).Add(ab, bb))
			f.Add(&z, &a, &d)
			f.Sub(&z, &a, &z)
			check("a - (a+off)", &z, big.NewInt(-off))
			z = a
			f.Add(&z, &z, &b)
			check("Add(z=a, b)", &z, new(big.Int).Add(ab, bb))
			z = b
			f.Add(&z, &a, &z)
			check("Add(a, z=b)", &z, new(big.Int).Add(ab, bb))
			z = a
			f.Sub(&z, &z, &b)
			check("Sub(z=a, b)", &z, new(big.Int).Sub(ab, bb))
			z = b
			f.Sub(&z, &a, &z)
			check("Sub(a, z=b)", &z, new(big.Int).Sub(ab, bb))
			z = a
			f.Double(&z, &z)
			check("Double(z=a)", &z, new(big.Int).Add(ab, ab))
			z = a
			f.Sub(&z, &z, &z)
			check("Sub(z, z)", &z, big.NewInt(0))
		}
	}
}

// FieldAxiomsQuick checks commutativity, associativity, distributivity,
// inverses and negation on random elements.
func FieldAxiomsQuick(t *testing.T, f *Field) {
	cfg := &quick.Config{MaxCount: 300, Values: func(args []reflect.Value, rng *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(f.Random(rng))
		}
	}}
	commutative := func(a, b [4]uint64) bool {
		var ab, ba, s1, s2 [4]uint64
		f.Mul(&ab, &a, &b)
		f.Mul(&ba, &b, &a)
		f.Add(&s1, &a, &b)
		f.Add(&s2, &b, &a)
		return ab == ba && s1 == s2
	}
	associative := func(a, b, c [4]uint64) bool {
		var l, r, t1, t2 [4]uint64
		f.Mul(&t1, &a, &b)
		f.Mul(&l, &t1, &c)
		f.Mul(&t2, &b, &c)
		f.Mul(&r, &a, &t2)
		return l == r
	}
	distributive := func(a, b, c [4]uint64) bool {
		var l, r, t1, t2 [4]uint64
		f.Add(&t1, &b, &c)
		f.Mul(&l, &a, &t1)
		f.Mul(&t1, &a, &b)
		f.Mul(&t2, &a, &c)
		f.Add(&r, &t1, &t2)
		return l == r
	}
	inverse := func(a [4]uint64) bool {
		var inv, prod [4]uint64
		f.Inverse(&inv, &a)
		if a == ([4]uint64{}) {
			return inv == a
		}
		f.Mul(&prod, &a, &inv)
		return prod == f.One()
	}
	negation := func(a [4]uint64) bool {
		var n, s [4]uint64
		f.Neg(&n, &a)
		f.Add(&s, &a, &n)
		return s == [4]uint64{}
	}
	for _, prop := range []any{commutative, associative, distributive, inverse, negation} {
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	}
}

// Identities checks 0 and 1 under addition and multiplication.
func Identities(t *testing.T, f *Field) {
	zero, one := [4]uint64{}, f.One()
	if one == zero {
		t.Fatal("one is zero")
	}
	a := f.Random(rand.New(rand.NewSource(4)))
	var sum, prod, zz [4]uint64
	f.Add(&sum, &a, &zero)
	f.Mul(&prod, &a, &one)
	if sum != a || prod != a {
		t.Fatal("identity laws fail")
	}
	if f.Mul(&zz, &a, &zero); zz != zero {
		t.Fatal("a*0 != 0")
	}
}

// SetInt64 checks negative and positive small integers.
func SetInt64(t *testing.T, f *Field) {
	var a, b [4]uint64
	f.SetInt64(&a, -7)
	f.SetUint64(&b, 7)
	f.Neg(&b, &b)
	if a != b {
		t.Fatal("SetInt64(-7) != -SetUint64(7)")
	}
	f.SetInt64(&a, 42)
	if got := f.canonical(&a); got.Int64() != 42 || !got.IsInt64() {
		t.Fatalf("SetInt64(42) = %v", got)
	}
}

// SetString checks decimal and hex literals and rejects garbage.
func SetString(t *testing.T, f *Field) {
	var a [4]uint64
	for s, want := range map[string]int64{"12345": 12345, "0xff": 255} {
		if err := f.SetString(&a, s); err != nil {
			t.Fatal(err)
		}
		if got := f.canonical(&a); got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("SetString(%q) = %v", s, got)
		}
	}
	if err := f.SetString(&a, "not-a-number"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// Exp checks exponentiation against math/big, and x⁰ = 1, x¹ = x. Past
// random exponents it runs those at the 4-bit window's seams: every k
// below 40, all-ones and single-bit nibbles, zero nibbles between set
// ones, the 64-bit word boundary, 2²⁵⁶−1 and (m+1)/4, on random bases
// and on 0, 1 and −1.
func Exp(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(3))
	var got [4]uint64
	for i := range 50 {
		a := f.Random(rng)
		k := new(big.Int).Rand(rng, f.m)
		f.Exp(&got, &a, k)
		if want := new(big.Int).Exp(f.canonical(&a), k, f.m); f.canonical(&got).Cmp(want) != 0 {
			t.Fatalf("exp mismatch at iteration %d", i)
		}
	}
	var ks []*big.Int
	for k := range 40 {
		ks = append(ks, big.NewInt(int64(k)))
	}
	pow2 := func(n uint) *big.Int { return new(big.Int).Lsh(bigOne, n) }
	for _, n := range []uint{63, 64, 65, 128, 253, 255, 256} {
		ks = append(ks, pow2(n), new(big.Int).Sub(pow2(n), bigOne), new(big.Int).Add(pow2(n), bigOne))
	}
	quarter := new(big.Int).Add(f.m, bigOne)
	ks = append(ks, quarter.Rsh(quarter, 2), new(big.Int).Sub(f.m, bigOne), new(big.Int).SetUint64(0xf0f00f0f00000001))
	var zero, one, minusOne [4]uint64
	f.SetUint64(&one, 1)
	f.Neg(&minusOne, &one)
	for _, a := range [][4]uint64{f.Random(rng), f.Random(rng), zero, one, minusOne} {
		for _, k := range ks {
			f.Exp(&got, &a, k)
			if want := new(big.Int).Exp(f.canonical(&a), k, f.m); f.canonical(&got).Cmp(want) != 0 {
				t.Fatalf("%s^%s = %s, math/big %s", f.canonical(&a), k, f.canonical(&got), want)
			}
		}
	}
	a := f.Random(rng)
	if f.Exp(&got, &a, big.NewInt(0)); got != f.One() {
		t.Fatal("x^0 != 1")
	}
	if f.Exp(&got, &a, big.NewInt(1)); got != a {
		t.Fatal("x^1 != x")
	}
}

// Legendre checks the symbol of 0, of squares, and that non-squares
// occur.
func Legendre(t *testing.T, f *Field) {
	if f.Legendre(&[4]uint64{}) != 0 {
		t.Fatal("Legendre(0) != 0")
	}
	rng := rand.New(rand.NewSource(5))
	nonSquares := 0
	for range 20 {
		a := f.Random(rng)
		var sq [4]uint64
		if f.Square(&sq, &a); f.Legendre(&sq) != 1 {
			t.Fatal("Legendre(x²) != 1")
		}
		if f.Legendre(&a) == -1 {
			nonSquares++
		}
	}
	if nonSquares == 0 {
		t.Fatal("no non-residues sampled; suspicious")
	}
}

// Halve checks 2·(x/2) = x, aliased and not.
func Halve(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(6))
	for range 100 {
		a := f.Random(rng)
		var h, back [4]uint64
		f.Halve(&h, &a)
		f.Double(&back, &h)
		if back != a {
			t.Fatal("2*(x/2) != x")
		}
		if f.Halve(&a, &a); a != h {
			t.Fatal("aliased Halve differs")
		}
	}
}

// BytesRoundTrip checks Bytes against SetBytesCanonical, which must
// reject the modulus and short input.
func BytesRoundTrip(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(5))
	for range 200 {
		a := f.Random(rng)
		enc := f.Bytes(&a)
		var b [4]uint64
		if err := f.SetBytesCanonical(&b, enc[:]); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("bytes round trip failed")
		}
	}
	var e [4]uint64
	if err := f.SetBytesCanonical(&e, f.m.FillBytes(make([]byte, 32))); err == nil {
		t.Fatal("modulus accepted as canonical encoding")
	}
	if err := f.SetBytesCanonical(&e, []byte{1, 2, 3}); err == nil {
		t.Fatal("short encoding accepted")
	}
}

// MontBytesRoundTrip checks the Montgomery-limb codec, MontBytes and
// SetMontBytes: the encoding is the raw limbs little-endian, unconverted,
// and decodes back to them for 0, 1, m−1 and random limbs; the limbs m,
// m+1 and 2²⁵⁶−1 and every length but 32 are refused, leaving the
// destination alone.
func MontBytesRoundTrip(t *testing.T, f *Field) {
	q := f.Q()
	rng := rand.New(rand.NewSource(9))
	cases := [][4]uint64{{}, {1}, subWord(q, 1)}
	for range 200 {
		cases = append(cases, f.Random(rng))
	}
	for _, x := range cases {
		enc := f.MontBytes(&x)
		for i := range x {
			if w := binary.LittleEndian.Uint64(enc[8*i:]); w != x[i] {
				t.Fatalf("MontBytes(%x): limb %d encodes as %x", x, i, w)
			}
		}
		var z [4]uint64
		if err := f.SetMontBytes(&z, enc[:]); err != nil || z != x {
			t.Fatalf("SetMontBytes(MontBytes(%x)) = %x, %v", x, z, err)
		}
	}
	sentinel := [4]uint64{7, 7, 7, 7}
	qPlus1 := [4]uint64{q[0] + 1, q[1], q[2], q[3]} // q is odd: no carry
	for _, bad := range [][4]uint64{q, qPlus1, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}} {
		enc := f.MontBytes(&bad)
		z := sentinel
		if err := f.SetMontBytes(&z, enc[:]); err == nil || z != sentinel {
			t.Fatalf("SetMontBytes accepted the limbs %x (err %v, z %x)", bad, err, z)
		}
	}
	one := f.MontBytes(&[4]uint64{1})
	for _, n := range []int{0, 31, 33, 64} {
		b := make([]byte, n)
		copy(b, one[:])
		z := sentinel
		if err := f.SetMontBytes(&z, b); err == nil || z != sentinel {
			t.Fatalf("SetMontBytes accepted %d bytes (err %v, z %x)", n, err, z)
		}
	}
}

// SetBytesCanonicalMatchesBigInt pins the limb-level decode (and Bytes,
// its mirror) against a math/big decode on random 256-bit strings — most
// of them above the modulus, which must be rejected — random canonical
// values, and the boundary encodings 0, 1, m−1, m, m+1 and 2²⁵⁶−1. A
// rejected decode must leave the receiver untouched.
func SetBytesCanonicalMatchesBigInt(t *testing.T, f *Field) {
	setBig := func(z *[4]uint64, b []byte) error {
		if len(b) != 32 {
			return errors.New("invalid encoding length")
		}
		v := new(big.Int).SetBytes(b)
		if v.Cmp(f.m) >= 0 {
			return errors.New("encoding is not canonical")
		}
		f.SetBigInt(z, v)
		return nil
	}
	rng := rand.New(rand.NewSource(77))
	enc32 := func(v *big.Int) []byte { return v.FillBytes(make([]byte, 32)) }
	cases := [][]byte{
		enc32(big.NewInt(0)), enc32(bigOne), enc32(new(big.Int).Sub(f.m, bigOne)),
		enc32(f.m), enc32(new(big.Int).Add(f.m, bigOne)),
		bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 31), make([]byte, 33), nil,
	}
	for i := range 2000 {
		raw := make([]byte, 32)
		rng.Read(raw)
		cases = append(cases, raw)
		a := f.Random(rng)
		enc := f.Bytes(&a)
		if want := enc32(f.canonical(&a)); !bytes.Equal(enc[:], want) {
			t.Fatalf("Bytes() = %x, math/big encodes %x", enc, want)
		}
		cases = append(cases, enc[:])
		// One limb equal to the modulus limb, the rest random: the
		// comparison must not stop at the first equal limb.
		edge := enc32(f.m)
		rng.Read(edge[8*(1+i%3):])
		cases = append(cases, edge)
	}
	var sentinel [4]uint64
	f.SetUint64(&sentinel, 12345)
	accepted := 0
	for _, b := range cases {
		got, want := sentinel, sentinel
		gotErr, wantErr := f.SetBytesCanonical(&got, b), setBig(&want, b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("SetBytesCanonical(%x): err %v, math/big oracle: %v", b, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("SetBytesCanonical(%x) = %x, math/big oracle %x", b, got, want)
		}
		if gotErr == nil {
			accepted++
		}
	}
	if rejected := len(cases) - accepted; accepted < 1000 || rejected < 1000 {
		t.Fatalf("%d encodings accepted, %d rejected: the case mix no longer covers both verdicts", accepted, rejected)
	}
}

// CmpAndLexicographicallyLargest checks the order of canonical values
// and the (m−1)/2 | (m+1)/2 boundary of the sign bit.
func CmpAndLexicographicallyLargest(t *testing.T, f *Field) {
	var a, b [4]uint64
	f.SetUint64(&a, 5)
	f.SetUint64(&b, 9)
	if f.Cmp(&a, &b) != -1 || f.Cmp(&b, &a) != 1 || f.Cmp(&a, &a) != 0 {
		t.Fatal("Cmp misbehaves")
	}
	for v, want := range map[*big.Int]bool{
		big.NewInt(0):            false,
		big.NewInt(1):            false,
		new(big.Int).Rsh(f.m, 1): false, // (m−1)/2, the largest "small" value
		new(big.Int).Add(new(big.Int).Rsh(f.m, 1), bigOne): true, // (m+1)/2, the smallest "large" one
		new(big.Int).Sub(f.m, bigOne):                      true,
	} {
		f.SetBigInt(&a, v)
		if f.LexicographicallyLargest(&a) != want {
			t.Fatalf("LexicographicallyLargest(%v) != %v", v, want)
		}
	}
}

// BatchInvert checks BatchInvertInto with zero entries among the inputs,
// a result buffer full of garbage it must overwrite, and no input.
func BatchInvert(t *testing.T, f *Field) {
	rng := rand.New(rand.NewSource(6))
	in, out := make([][4]uint64, 50), make([][4]uint64, 50)
	for i := range in {
		if i%7 != 3 {
			in[i] = f.Random(rng)
		}
		out[i] = f.Random(rng)
	}
	f.BatchInvertInto(in, out)
	for i := range in {
		var prod [4]uint64
		f.Mul(&prod, &in[i], &out[i])
		if in[i] == ([4]uint64{}) && out[i] != in[i] || in[i] != ([4]uint64{}) && prod != f.One() {
			t.Fatalf("batch inverse wrong at %d", i)
		}
	}
	f.BatchInvertInto(nil, nil)
}

// InverseMatchesFermatOracle pins the binary-GCD Inverse against the
// exponentiation-by-(m−2) oracle, including structured values that
// stress the GCD's even/odd and comparison branches. The GCD runs on the
// raw representative, so the raw powers of two, raw values next to 0
// and m, and single saturated limbs are there too: they hit its long
// zero runs, its exact 64-bit tail and its sign flips.
func InverseMatchesFermatOracle(t *testing.T, f *Field) {
	mMinus2 := new(big.Int).Sub(f.m, big.NewInt(2))
	check := func(x [4]uint64) {
		t.Helper()
		var want, got [4]uint64
		if x != want {
			f.Exp(&want, &x, mMinus2)
		}
		if f.Inverse(&got, &x); got != want {
			t.Fatalf("Inverse mismatch for raw %x", x)
		}
	}
	rng := rand.New(rand.NewSource(62))
	for range 500 {
		check(f.Random(rng))
	}
	var x [4]uint64
	for _, v := range []uint64{0, 1, 2, 3, 4, 255, 1 << 63} {
		f.SetUint64(&x, v)
		check(x)
		f.Neg(&x, &x) // m - v
		check(x)
	}
	f.SetUint64(&x, 1)
	for range 254 { // all powers of two in the field
		check(x)
		f.Double(&x, &x)
	}
	for i := range f.m.BitLen() { // raw powers of two, and one below each
		x = [4]uint64{}
		x[i/64] = 1 << (i % 64)
		check(x)
		check(subWord(x, 1))
	}
	q := f.Q()
	for _, v := range []uint64{1, 2, 3, 1<<31 - 1, 1 << 31, 1<<33 + 1} {
		check([4]uint64{v})
		check(subWord(q, v))
	}
	for i := range 4 {
		x = [4]uint64{}
		x[i] = ^uint64(0)
		if i == 3 {
			x[i] = q[i] - 1
		}
		check(x)
	}
}

// subWord returns x − v for x ≥ v.
func subWord(x [4]uint64, v uint64) [4]uint64 {
	var b uint64
	x[0], b = bits.Sub64(x[0], v, 0)
	x[1], b = bits.Sub64(x[1], 0, b)
	x[2], b = bits.Sub64(x[2], 0, b)
	x[3], _ = bits.Sub64(x[3], 0, b)
	return x
}

// mulBackendSeeds returns the boundary corpus of FuzzMulBackends: zero,
// one, m−1 (largest canonical value), fully saturated bytes (forces the
// SetBytes reduction and the conditional-subtract edge in every backend)
// and m−1 by 2. Each seed is x||y as two 32-byte big-endian values.
func mulBackendSeeds(m *big.Int) [][]byte {
	seedOne := make([]byte, 64)
	seedOne[31], seedOne[63] = 1, 1
	pm1 := new(big.Int).Sub(m, bigOne)
	pm1Seed := make([]byte, 64)
	pm1.FillBytes(pm1Seed[:32])
	pm1.FillBytes(pm1Seed[32:])
	mixed := make([]byte, 64)
	pm1.FillBytes(mixed[:32])
	mixed[63] = 2
	return [][]byte{make([]byte, 64), seedOne, pm1Seed, bytes.Repeat([]byte{0xff}, 64), mixed}
}

// products is every product form FuzzMulBackends compares across
// backends: out of place, each aliasing form, and the vector kernel
// with and without dst = a.
type products struct {
	mul, sq, mulZX, mulZY, sqZX [4]uint64
	vec, vecInPlace             [][4]uint64
}

func (f *Field) products(x, y [4]uint64) (p products) {
	f.Mul(&p.mul, &x, &y)
	f.Square(&p.sq, &x)
	p.mulZX = x
	f.Mul(&p.mulZX, &p.mulZX, &y)
	p.mulZY = y
	f.Mul(&p.mulZY, &x, &p.mulZY)
	p.sqZX = x
	f.Square(&p.sqZX, &p.sqZX)
	a, b := [][4]uint64{x, y, x, y}, [][4]uint64{y, x, x, y}
	p.vec = make([][4]uint64, len(a))
	f.MulVec(p.vec, a, b)
	f.MulVec(a, a, b)
	p.vecInPlace = a
	return p
}

// FuzzMulBackends pins every multiplication backend to the portable
// generic CIOS core, bit for bit: the build's Mul/Square dispatch
// (assembly on amd64 with ADX, generic elsewhere), the in-place aliasing
// forms, and the vector kernel. On purego builds both sides run the
// generic core and the target degenerates to a self-check.
func FuzzMulBackends(ff *testing.F, f *Field) {
	for _, seed := range mulBackendSeeds(f.m) {
		ff.Add(seed)
	}
	ff.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		var x, y [4]uint64
		f.SetBytes(&x, data[:32])
		f.SetBytes(&y, data[32:64])
		got := f.products(x, y)
		restore, _ := UseADX(false)
		want := f.products(x, y)
		restore()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("backend %s differs from the generic core on x=%x, y=%x:\n got %x\nwant %x", mont.MulBackend(), x, y, got, want)
		}
		if want.mulZX != want.mul || want.mulZY != want.mul || want.sqZX != want.sq ||
			want.vec[0] != want.mul || want.vec[1] != want.mul || want.vec[2] != want.sq ||
			!reflect.DeepEqual(want.vec, want.vecInPlace) {
			t.Fatalf("the aliased, squared and vector forms disagree on x=%x, y=%x: %x", x, y, want)
		}
	})
}

// arithSeeds pairs every raw boundary value with every other as x||y:
// 0, 1, m−1, m−2, (m±1)/2 and saturated limbs (2²⁵⁶−1, reduced), so raw
// sums and differences land on, and one either side of, m and 0.
func arithSeeds(m *big.Int) [][]byte {
	half := new(big.Int).Rsh(m, 1)
	sat := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), bigOne)
	values := []*big.Int{
		new(big.Int), bigOne,
		new(big.Int).Sub(m, bigOne), new(big.Int).Sub(m, big.NewInt(2)),
		half, new(big.Int).Add(half, bigOne), sat,
	}
	var seeds [][]byte
	for _, x := range values {
		for _, y := range values {
			seed := make([]byte, 64)
			x.FillBytes(seed[:32])
			y.FillBytes(seed[32:])
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

// FuzzArith holds every arithmetic op, out of place and in each aliasing
// form, to the math/big oracle.
func FuzzArith(ff *testing.F, f *Field) {
	for _, seed := range arithSeeds(f.m) {
		ff.Add(seed)
	}
	o := f.Oracle
	ff.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		x, y := f.Raw(data[:32]), f.Raw(data[32:64])
		xv, yv := f.Value(&x), f.Value(&y)
		check := func(op string, got *[4]uint64, want *big.Int) {
			t.Helper()
			if !f.Holds(got, want) {
				t.Fatalf("%s(x=%v, y=%v): raw %x = %v, want %v", op, xv, yv, *got, f.Value(got), want)
			}
		}

		binops := []struct {
			name string
			op   func(z, x, y *[4]uint64)
			want func(x, y *big.Int) *big.Int
		}{
			{"Add", f.Add, o.Add},
			{"Sub", f.Sub, o.Sub},
			{"Mul", f.Mul, o.Mul},
		}
		for _, b := range binops {
			var z [4]uint64
			b.op(&z, &x, &y)
			check(b.name, &z, b.want(xv, yv))
			z = x
			b.op(&z, &z, &y)
			check(b.name+"(z=x)", &z, b.want(xv, yv))
			z = y
			b.op(&z, &x, &z)
			check(b.name+"(z=y)", &z, b.want(xv, yv))
			z = x
			b.op(&z, &z, &z)
			check(b.name+"(z=x=y)", &z, b.want(xv, xv))
		}

		unops := []struct {
			name string
			op   func(z, x *[4]uint64)
			want func(x *big.Int) *big.Int
		}{
			{"Double", f.Double, func(x *big.Int) *big.Int { return o.Add(x, x) }},
			{"Neg", f.Neg, o.Neg},
			{"Square", f.Square, func(x *big.Int) *big.Int { return o.Mul(x, x) }},
			{"Inverse", f.Inverse, o.Inverse},
			{"Halve", f.Halve, func(x *big.Int) *big.Int { return o.Mul(x, o.Inverse(big.NewInt(2))) }},
		}
		for _, u := range unops {
			var z [4]uint64
			u.op(&z, &x)
			check(u.name, &z, u.want(xv))
			z = x
			u.op(&z, &z)
			check(u.name+"(z=x)", &z, u.want(xv))
		}
	})
}
