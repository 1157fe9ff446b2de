package fp

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randElement returns a pseudo-random element for deterministic tests.
func randElement(rng *rand.Rand) Element {
	var v big.Int
	words := make([]byte, 40)
	rng.Read(words)
	v.SetBytes(words)
	var e Element
	e.SetBigInt(&v)
	return e
}

// Generate implements quick.Generator so testing/quick can draw random
// field elements.
func (Element) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randElement(rng))
}

func TestMontgomeryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var v big.Int
		b := make([]byte, 48)
		rng.Read(b)
		v.SetBytes(b)
		v.Mod(&v, Modulus())
		var e Element
		e.SetBigInt(&v)
		got := e.ToBigInt()
		if got.Cmp(&v) != 0 {
			t.Fatalf("round trip failed: want %s got %s", v.String(), got.String())
		}
	}
}

func TestAddSubMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mod := Modulus()
	for i := 0; i < 2000; i++ {
		a := randElement(rng)
		b := randElement(rng)
		ab, bb := a.ToBigInt(), b.ToBigInt()

		var sum, diff, prod Element
		sum.Add(&a, &b)
		diff.Sub(&a, &b)
		prod.Mul(&a, &b)

		wantSum := new(big.Int).Add(ab, bb)
		wantSum.Mod(wantSum, mod)
		wantDiff := new(big.Int).Sub(ab, bb)
		wantDiff.Mod(wantDiff, mod)
		wantProd := new(big.Int).Mul(ab, bb)
		wantProd.Mod(wantProd, mod)

		if sum.ToBigInt().Cmp(wantSum) != 0 {
			t.Fatalf("add mismatch: %v + %v", ab, bb)
		}
		if diff.ToBigInt().Cmp(wantDiff) != 0 {
			t.Fatalf("sub mismatch: %v - %v", ab, bb)
		}
		if prod.ToBigInt().Cmp(wantProd) != 0 {
			t.Fatalf("mul mismatch: %v * %v", ab, bb)
		}
	}
}

// TestAddSubBoundaries walks the conditional reductions across their edges:
// sums that land on p exactly and one to either side of it, differences
// of zero and of minus one, and every way the result can alias an
// operand.
func TestAddSubBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mod := Modulus()
	var one Element
	one.SetOne()
	check := func(what string, got *Element, want *big.Int) {
		t.Helper()
		want.Mod(want, mod)
		if got.ToBigInt().Cmp(want) != 0 {
			t.Fatalf("%s: got %v want %v", what, got.ToBigInt(), want)
		}
	}
	for i := 0; i < 200; i++ {
		a := randElement(rng)
		if i == 0 {
			a.SetZero()
		}
		var neg Element
		neg.Neg(&a)
		for _, off := range []int64{-1, 0, 1} {
			var d, b Element
			d.SetInt64(off)
			b.Add(&neg, &d) // b = -a + off
			ab, bb := a.ToBigInt(), b.ToBigInt()

			var z Element
			check("a + (-a+off)", z.Add(&a, &b), new(big.Int).Add(ab, bb))
			check("a - (a+off)", z.Sub(&a, z.Add(&a, &d)), big.NewInt(-off))
			z = a
			check("z.Add(z, b)", z.Add(&z, &b), new(big.Int).Add(ab, bb))
			z = b
			check("z.Add(a, z)", z.Add(&a, &z), new(big.Int).Add(ab, bb))
			z = a
			check("z.Sub(z, b)", z.Sub(&z, &b), new(big.Int).Sub(ab, bb))
			z = b
			check("z.Sub(a, z)", z.Sub(&a, &z), new(big.Int).Sub(ab, bb))
			z = a
			check("z.Double(z)", z.Double(&z), new(big.Int).Add(ab, ab))
			z = a
			check("z.Sub(z, z)", z.Sub(&z, &z), big.NewInt(0))
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	commutative := func(a, b Element) bool {
		var ab, ba Element
		ab.Mul(&a, &b)
		ba.Mul(&b, &a)
		var s1, s2 Element
		s1.Add(&a, &b)
		s2.Add(&b, &a)
		return ab.Equal(&ba) && s1.Equal(&s2)
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Error(err)
	}

	associative := func(a, b, c Element) bool {
		var l, r, t1, t2 Element
		t1.Mul(&a, &b)
		l.Mul(&t1, &c)
		t2.Mul(&b, &c)
		r.Mul(&a, &t2)
		return l.Equal(&r)
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Error(err)
	}

	distributive := func(a, b, c Element) bool {
		var l, r, t1, t2 Element
		t1.Add(&b, &c)
		l.Mul(&a, &t1)
		t1.Mul(&a, &b)
		t2.Mul(&a, &c)
		r.Add(&t1, &t2)
		return l.Equal(&r)
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Error(err)
	}

	inverse := func(a Element) bool {
		if a.IsZero() {
			var inv Element
			inv.Inverse(&a)
			return inv.IsZero()
		}
		var inv, prod Element
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		return prod.IsOne()
	}
	if err := quick.Check(inverse, cfg); err != nil {
		t.Error(err)
	}

	negation := func(a Element) bool {
		var n, s Element
		n.Neg(&a)
		s.Add(&a, &n)
		return s.IsZero()
	}
	if err := quick.Check(negation, cfg); err != nil {
		t.Error(err)
	}
}

func TestIdentities(t *testing.T) {
	var z, o Element
	z.SetZero()
	o.SetOne()
	if !z.IsZero() || z.IsOne() {
		t.Fatal("zero misbehaves")
	}
	if !o.IsOne() || o.IsZero() {
		t.Fatal("one misbehaves")
	}
	a := MustRandom()
	var sum, prod Element
	sum.Add(&a, &z)
	prod.Mul(&a, &o)
	if !sum.Equal(&a) || !prod.Equal(&a) {
		t.Fatal("identity laws fail")
	}
	var zz Element
	zz.Mul(&a, &z)
	if !zz.IsZero() {
		t.Fatal("a*0 != 0")
	}
}

func TestSetInt64(t *testing.T) {
	var a Element
	a.SetInt64(-7)
	var b Element
	b.SetUint64(7)
	b.Neg(&b)
	if !a.Equal(&b) {
		t.Fatal("SetInt64(-7) != -SetUint64(7)")
	}
	a.SetInt64(42)
	if a.String() != "42" {
		t.Fatalf("SetInt64(42) = %s", a.String())
	}
}

func TestExp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mod := Modulus()
	for i := 0; i < 50; i++ {
		a := randElement(rng)
		k := new(big.Int).Rand(rng, mod)
		var got Element
		got.Exp(&a, k)
		want := new(big.Int).Exp(a.ToBigInt(), k, mod)
		if got.ToBigInt().Cmp(want) != 0 {
			t.Fatalf("exp mismatch at iteration %d", i)
		}
	}
	// x^0 == 1, x^1 == x.
	a := randElement(rng)
	var r Element
	r.Exp(&a, big.NewInt(0))
	if !r.IsOne() {
		t.Fatal("x^0 != 1")
	}
	r.Exp(&a, big.NewInt(1))
	if !r.Equal(&a) {
		t.Fatal("x^1 != x")
	}
}

func TestSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	found := 0
	for i := 0; i < 100; i++ {
		a := randElement(rng)
		var sq Element
		sq.Square(&a)
		var rt Element
		if rt.Sqrt(&sq) == nil {
			t.Fatal("square reported as non-residue")
		}
		var chk Element
		chk.Square(&rt)
		if !chk.Equal(&sq) {
			t.Fatal("sqrt(x²)² != x²")
		}
		if a.Legendre() == -1 {
			found++
			var r Element
			if r.Sqrt(&a) != nil {
				t.Fatal("non-residue has square root")
			}
		}
	}
	if found == 0 {
		t.Fatal("no non-residues sampled; suspicious")
	}
}

func TestLegendre(t *testing.T) {
	var z Element
	if z.Legendre() != 0 {
		t.Fatal("Legendre(0) != 0")
	}
	a := MustRandom()
	var sq Element
	sq.Square(&a)
	if !a.IsZero() && sq.Legendre() != 1 {
		t.Fatal("Legendre(x²) != 1")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := randElement(rng)
		enc := a.Bytes()
		var b Element
		if err := b.SetBytesCanonical(enc[:]); err != nil {
			t.Fatal(err)
		}
		if !a.Equal(&b) {
			t.Fatal("bytes round trip failed")
		}
	}
	// Non-canonical encoding must be rejected.
	enc := Modulus().Bytes()
	pad := make([]byte, Bytes-len(enc))
	full := append(pad, enc...)
	var e Element
	if err := e.SetBytesCanonical(full); err == nil {
		t.Fatal("modulus accepted as canonical encoding")
	}
	if err := e.SetBytesCanonical([]byte{1, 2, 3}); err == nil {
		t.Fatal("short encoding accepted")
	}
}

// setBytesCanonicalBig is the math/big decode SetBytesCanonical replaced,
// kept as its differential oracle.
func setBytesCanonicalBig(z *Element, b []byte) error {
	if len(b) != Bytes {
		return errors.New("fp: invalid encoding length")
	}
	var v big.Int
	v.SetBytes(b)
	if v.Cmp(&qModulus) >= 0 {
		return errors.New("fp: encoding is not canonical")
	}
	z.SetBigInt(&v)
	return nil
}

// TestSetBytesCanonicalMatchesBigInt pins the limb-level decode (and
// Bytes, its mirror) against the math/big implementation on random
// 256-bit strings — most of them ≥ p, which must be rejected — random
// canonical values, and the boundary encodings 0, 1, p−1, p, p+1 and
// 2²⁵⁶−1. A rejected decode must leave the receiver untouched.
func TestSetBytesCanonicalMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	enc32 := func(v *big.Int) []byte { return v.FillBytes(make([]byte, Bytes)) }
	p := Modulus()
	cases := [][]byte{
		enc32(big.NewInt(0)),
		enc32(big.NewInt(1)),
		enc32(new(big.Int).Sub(p, big.NewInt(1))),
		enc32(p),
		enc32(new(big.Int).Add(p, big.NewInt(1))),
		bytes.Repeat([]byte{0xff}, Bytes),
		bytes.Repeat([]byte{0xff}, Bytes-1),
		make([]byte, Bytes+1),
		nil,
	}
	for i := 0; i < 2000; i++ {
		raw := make([]byte, Bytes)
		rng.Read(raw)
		cases = append(cases, raw)
		a := randElement(rng)
		enc := a.Bytes()
		if want := enc32(a.ToBigInt()); !bytes.Equal(enc[:], want) {
			t.Fatalf("Bytes() = %x, math/big encodes %x", enc, want)
		}
		cases = append(cases, enc[:])
		// One limb equal to the modulus limb, the rest random: the
		// comparison must not stop at the first equal limb.
		edge := enc32(p)
		rng.Read(edge[8*(1+i%3):])
		cases = append(cases, edge)
	}
	accepted := 0
	for _, b := range cases {
		sentinel := NewElement(12345)
		got, want := sentinel, sentinel
		gotErr, wantErr := got.SetBytesCanonical(b), setBytesCanonicalBig(&want, b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("SetBytesCanonical(%x): err %v, math/big oracle: %v", b, gotErr, wantErr)
		}
		if !got.Equal(&want) {
			t.Fatalf("SetBytesCanonical(%x) = %v, math/big oracle %v", b, &got, &want)
		}
		if gotErr == nil {
			accepted++
		}
	}
	if rejected := len(cases) - accepted; accepted < 1000 || rejected < 1000 {
		t.Fatalf("%d encodings accepted, %d rejected: the case mix no longer covers both verdicts", accepted, rejected)
	}
}

func TestCmpAndLexicographicallyLargest(t *testing.T) {
	var a, b Element
	a.SetUint64(5)
	b.SetUint64(9)
	if a.Cmp(&b) != -1 || b.Cmp(&a) != 1 || a.Cmp(&a) != 0 {
		t.Fatal("Cmp misbehaves")
	}
	var small, large Element
	small.SetUint64(1)
	large.Neg(&small) // p-1, which is > (p-1)/2
	if small.LexicographicallyLargest() {
		t.Fatal("1 should not be lexicographically largest")
	}
	if !large.LexicographicallyLargest() {
		t.Fatal("p-1 should be lexicographically largest")
	}
	// The boundary: (p-1)/2 is the largest "small" value, (p+1)/2 the
	// smallest "large" one.
	half := new(big.Int).Rsh(Modulus(), 1)
	small.SetBigInt(half)
	large.SetBigInt(half.Add(half, big.NewInt(1)))
	if small.LexicographicallyLargest() || !large.LexicographicallyLargest() {
		t.Fatal("the (p-1)/2 | (p+1)/2 boundary is misplaced")
	}
}

func TestBatchInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := make([]Element, 33)
	for i := range in {
		if i%7 == 3 {
			in[i].SetZero()
			continue
		}
		in[i] = randElement(rng)
	}
	out := BatchInvert(in)
	for i := range in {
		if in[i].IsZero() {
			if !out[i].IsZero() {
				t.Fatal("inverse of zero not zero")
			}
			continue
		}
		var prod Element
		prod.Mul(&in[i], &out[i])
		if !prod.IsOne() {
			t.Fatalf("batch inverse wrong at %d", i)
		}
	}
	if got := BatchInvert(nil); len(got) != 0 {
		t.Fatal("BatchInvert(nil) should be empty")
	}
}

func TestBatchInvertInto(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	in := make([]Element, 50)
	for i := range in {
		if i%9 == 4 {
			continue // zero entry
		}
		in[i] = randElement(rng)
	}
	out := make([]Element, len(in))
	// Pre-fill with garbage: BatchInvertInto must fully overwrite.
	for i := range out {
		out[i] = randElement(rng)
	}
	BatchInvertInto(in, out)
	for i := range in {
		if in[i].IsZero() {
			if !out[i].IsZero() {
				t.Fatal("inverse of zero not zero")
			}
			continue
		}
		var prod Element
		prod.Mul(&in[i], &out[i])
		if !prod.IsOne() {
			t.Fatalf("batch inverse wrong at %d", i)
		}
	}
}

// TestInverseMatchesFermatOracle pins the binary-GCD Inverse against
// the exponentiation-by-(p-2) oracle, including structured values that
// stress the GCD's even/odd and comparison branches.
func TestInverseMatchesFermatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	check := func(x *Element) {
		var want, got Element
		inverseExp(&want, x)
		got.Inverse(x)
		if !want.Equal(&got) {
			t.Fatalf("Inverse mismatch for %s", x.String())
		}
	}
	for i := 0; i < 500; i++ {
		x := randElement(rng)
		check(&x)
	}
	var x Element
	for _, v := range []uint64{0, 1, 2, 3, 4, 255, 1 << 63} {
		x.SetUint64(v)
		check(&x)
		x.Neg(&x) // p - v
		check(&x)
	}
	x.SetOne()
	for i := 0; i < 254; i++ { // all powers of two in the field
		check(&x)
		x.Double(&x)
	}
}

func TestHalve(t *testing.T) {
	a := MustRandom()
	h := a
	h.Halve()
	var back Element
	back.Double(&h)
	if !back.Equal(&a) {
		t.Fatal("2*(x/2) != x")
	}
}

func TestStringAndFormat(t *testing.T) {
	var a Element
	a.SetUint64(123456789)
	if a.String() != "123456789" {
		t.Fatalf("String() = %q", a.String())
	}
	var buf bytes.Buffer
	if _, err := buf.WriteString(a.String()); err != nil {
		t.Fatal(err)
	}
}

func TestSetString(t *testing.T) {
	var a Element
	if _, err := a.SetString("12345"); err != nil {
		t.Fatal(err)
	}
	if a.String() != "12345" {
		t.Fatal("decimal parse failed")
	}
	if _, err := a.SetString("0xff"); err != nil {
		t.Fatal(err)
	}
	if a.String() != "255" {
		t.Fatal("hex parse failed")
	}
	if _, err := a.SetString("not-a-number"); err == nil {
		t.Fatal("garbage accepted")
	}
}
