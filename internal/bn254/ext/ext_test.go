package ext

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"zkrownn/internal/bn254/fp"
)

func randE2(rng *rand.Rand) E2 {
	var e E2
	b := make([]byte, 40)
	rng.Read(b)
	e.A0.SetBigInt(new(big.Int).SetBytes(b))
	rng.Read(b)
	e.A1.SetBigInt(new(big.Int).SetBytes(b))
	return e
}

func randFp(rng *rand.Rand) fp.Element { return randE2(rng).A0 }

func randE6(rng *rand.Rand) E6 {
	return E6{B0: randE2(rng), B1: randE2(rng), B2: randE2(rng)}
}

func randE12(rng *rand.Rand) E12 {
	return E12{C0: randE6(rng), C1: randE6(rng)}
}

func (E2) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randE2(rng))
}

func (E12) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randE12(rng))
}

func TestE2FieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(a, b, c E2) bool {
		var l, r, t1, t2 E2
		t1.Mul(&a, &b)
		l.Mul(&t1, &c)
		t2.Mul(&b, &c)
		r.Mul(&a, &t2)
		if !l.Equal(&r) {
			return false
		}
		t1.Add(&b, &c)
		l.Mul(&a, &t1)
		t1.Mul(&a, &b)
		t2.Mul(&a, &c)
		r.Add(&t1, &t2)
		return l.Equal(&r)
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a E2) bool {
		if a.IsZero() {
			return true
		}
		var inv, prod E2
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		return prod.IsOne()
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a E2) bool {
		var sq, mm E2
		sq.Square(&a)
		mm.Mul(&a, &a)
		return sq.Equal(&mm)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestE2USquaredIsMinusOne(t *testing.T) {
	var u E2
	u.A1.SetOne()
	var sq E2
	sq.Square(&u)
	var minusOne E2
	minusOne.SetOne()
	minusOne.Neg(&minusOne)
	if !sq.Equal(&minusOne) {
		t.Fatal("u² != -1")
	}
}

func TestE2MulByNonResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xi := Xi()
	for i := 0; i < 100; i++ {
		a := randE2(rng)
		var viaMul, viaFunc E2
		viaMul.Mul(&a, &xi)
		viaFunc.MulByNonResidue(&a)
		if !viaMul.Equal(&viaFunc) {
			t.Fatal("MulByNonResidue != Mul(ξ)")
		}
	}
}

func TestE2Conjugate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randE2(rng)
	var c E2
	c.Conjugate(&a)
	// a * conj(a) must be the norm, a pure F_p element.
	var prod E2
	prod.Mul(&a, &c)
	if !prod.A1.IsZero() {
		t.Fatal("a·conj(a) not in F_p")
	}
	var norm fp.Element
	a.Norm(&norm)
	if !prod.A0.Equal(&norm) {
		t.Fatal("a·conj(a) != Norm(a)")
	}
}

func TestE2Sqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		a := randE2(rng)
		var sq E2
		sq.Square(&a)
		var rt E2
		if rt.Sqrt(&sq) == nil {
			t.Fatal("square reported as non-residue")
		}
		var chk E2
		chk.Square(&rt)
		if !chk.Equal(&sq) {
			t.Fatal("sqrt round trip failed")
		}
	}
	// ξ must be a non-square in F_p² (it is a sextic non-residue).
	xi := Xi()
	var rt E2
	if rt.Sqrt(&xi) != nil {
		t.Fatal("ξ unexpectedly a square; tower unsound")
	}
}

func TestE6TowerRelation(t *testing.T) {
	// v³ must equal ξ.
	var v E6
	v.B1.SetOne()
	var v3 E6
	v3.Mul(&v, &v)
	v3.Mul(&v3, &v)
	xi := Xi()
	if !v3.B0.Equal(&xi) || !v3.B1.IsZero() || !v3.B2.IsZero() {
		t.Fatal("v³ != ξ")
	}
}

func TestE6MulInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 50; i++ {
		a := randE6(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod E6
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatal("E6 inverse failed")
		}
	}
}

func TestE6MulByNonResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var v E6
	v.B1.SetOne()
	for i := 0; i < 50; i++ {
		a := randE6(rng)
		var viaMul, viaFunc E6
		viaMul.Mul(&a, &v)
		viaFunc.MulByNonResidue(&a)
		if !viaMul.Equal(&viaFunc) {
			t.Fatal("E6 MulByNonResidue != Mul(v)")
		}
	}
}

func TestE12TowerRelation(t *testing.T) {
	// w² must equal v.
	var w E12
	w.C1.B0.SetOne()
	var w2 E12
	w2.Square(&w)
	var v E6
	v.B1.SetOne()
	if !w2.C0.Equal(&v) || !w2.C1.IsZero() {
		t.Fatal("w² != v")
	}
}

func TestE12MulInverseSquare(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(a E12) bool {
		if a.IsZero() {
			return true
		}
		var inv, prod E12
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			return false
		}
		var sq, mm E12
		sq.Square(&a)
		mm.Mul(&a, &a)
		return sq.Equal(&mm)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestFrobeniusIsPthPower(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := fp.Modulus()
	for i := 0; i < 5; i++ {
		a := randE12(rng)
		var frob, pow E12
		frob.Frobenius(&a)
		pow.Exp(&a, p)
		if !frob.Equal(&pow) {
			t.Fatal("Frobenius != x^p")
		}
	}
}

func TestFrobeniusSquareIsP2Power(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := fp.Modulus()
	p2 := new(big.Int).Mul(p, p)
	for i := 0; i < 3; i++ {
		a := randE12(rng)
		var frob2, pow E12
		frob2.FrobeniusSquare(&a)
		pow.Exp(&a, p2)
		if !frob2.Equal(&pow) {
			t.Fatal("FrobeniusSquare != x^(p²)")
		}
	}
	// Composition check: Frobenius∘Frobenius == FrobeniusSquare.
	a := randE12(rng)
	var f1, f2, fs E12
	f1.Frobenius(&a)
	f2.Frobenius(&f1)
	fs.FrobeniusSquare(&a)
	if !f2.Equal(&fs) {
		t.Fatal("Frobenius² != FrobeniusSquare")
	}
}

func TestE12ConjugateIsP6Power(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randE12(rng)
	// x^(p⁶) should equal Conjugate(x): apply FrobeniusSquare three times.
	var f E12
	f.FrobeniusSquare(&a)
	f.FrobeniusSquare(&f)
	f.FrobeniusSquare(&f)
	var c E12
	c.Conjugate(&a)
	if !f.Equal(&c) {
		t.Fatal("x^(p⁶) != Conjugate(x)")
	}
}

// TestMulBy034MatchesDense: the sparse line multiplication must equal
// the dense product with the same element written out in full, on random
// operands and on every shape where a shortcut could go wrong.
func TestMulBy034MatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var zero2, one2 E2
	one2.SetOne()
	var zero, one, minusOne fp.Element
	one.SetOne()
	minusOne.Neg(&one)
	var zero12, one12 E12
	one12.SetOne()
	onlyC1 := randE12(rng)
	onlyC1.C0.SetZero()
	onlyC0 := randE12(rng)
	onlyC0.C1.SetZero()

	type mulCase struct {
		name   string
		f      E12
		c0     fp.Element
		c3, c4 E2
	}
	cases := []mulCase{
		{"random", randE12(rng), randFp(rng), randE2(rng), randE2(rng)},
		{"random2", randE12(rng), randFp(rng), randE2(rng), randE2(rng)},
		{"f=0", zero12, randFp(rng), randE2(rng), randE2(rng)},
		{"f=1", one12, randFp(rng), randE2(rng), randE2(rng)},
		{"f.C0=0", onlyC1, randFp(rng), randE2(rng), randE2(rng)},
		{"f.C1=0", onlyC0, randFp(rng), randE2(rng), randE2(rng)},
		{"c0=0", randE12(rng), zero, randE2(rng), randE2(rng)},
		{"c0=-1", randE12(rng), minusOne, randE2(rng), randE2(rng)},
		{"c3=0", randE12(rng), randFp(rng), zero2, randE2(rng)},
		{"c4=0", randE12(rng), randFp(rng), randE2(rng), zero2},
		{"c3=c4=0", randE12(rng), randFp(rng), zero2, zero2},
		{"line=0", randE12(rng), zero, zero2, zero2},
		{"line=1", randE12(rng), one, zero2, zero2},
		{"c3=c4=1", randE12(rng), one, one2, one2},
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, mulCase{"random", randE12(rng), randFp(rng), randE2(rng), randE2(rng)})
	}
	for _, c := range cases {
		var line, dense E12
		line.C0.B0.A0.Set(&c.c0)
		line.C1.B0.Set(&c.c3)
		line.C1.B1.Set(&c.c4)
		dense.Mul(&c.f, &line)
		sparse := c.f
		if got := sparse.MulBy034(&c.c0, &c.c3, &c.c4); got != &sparse || !dense.Equal(&sparse) {
			t.Fatalf("%s: MulBy034 disagrees with the dense product", c.name)
		}
	}
}

func TestE6MulBy01MatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20; i++ {
		x := randE6(rng)
		y := E6{B0: randE2(rng), B1: randE2(rng)}
		var want E6
		want.Mul(&x, &y)
		got := x
		got.MulBy01(&got, &y.B0, &y.B1) // aliased, as MulBy034 calls it
		if !want.Equal(&got) {
			t.Fatal("MulBy01 disagrees with Mul")
		}
	}
}

func BenchmarkMulBy034(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	f, c0, c3, c4 := randE12(rng), randFp(rng), randE2(rng), randE2(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulBy034(&c0, &c3, &c4)
	}
}

func BenchmarkE12Mul(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	f, g := randE12(rng), randE12(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mul(&f, &g)
	}
}

func TestBatchInvertE2(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	in := make([]E2, 17)
	for i := range in {
		if i == 5 {
			continue // leave a zero
		}
		in[i] = randE2(rng)
	}
	out := BatchInvertE2(in)
	for i := range in {
		if in[i].IsZero() {
			if !out[i].IsZero() {
				t.Fatal("zero inverse not zero")
			}
			continue
		}
		var prod E2
		prod.Mul(&in[i], &out[i])
		if !prod.IsOne() {
			t.Fatal("batch E2 inverse wrong")
		}
	}
}

func TestBatchInvertE2Into(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := make([]E2, 23)
	for i := range in {
		if i%6 == 1 {
			continue // leave zeros
		}
		in[i] = randE2(rng)
	}
	out := make([]E2, len(in))
	for i := range out {
		out[i] = randE2(rng) // garbage that must be overwritten
	}
	BatchInvertE2Into(in, out)
	for i := range in {
		if in[i].IsZero() {
			if !out[i].IsZero() {
				t.Fatal("zero inverse not zero")
			}
			continue
		}
		var prod E2
		prod.Mul(&in[i], &out[i])
		if !prod.IsOne() {
			t.Fatal("batch E2 inverse wrong")
		}
	}
}

const randomOperandCount = 1 << 16

// randomE2Operands is a working set like fp's BenchmarkAddRandom: the
// adds and subs between the products wrap past p or not at random, so
// a reduction that branches on it pays for every misprediction.
func randomE2Operands() (x, y []E2) {
	rng := rand.New(rand.NewSource(23))
	x, y = make([]E2, randomOperandCount), make([]E2, randomOperandCount)
	for i := range x {
		x[i], y[i] = randE2(rng), randE2(rng)
	}
	return x, y
}

func BenchmarkE2MulRandom(b *testing.B) {
	x, y := randomE2Operands()
	var z E2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x[i%randomOperandCount], &y[i%randomOperandCount])
	}
	_ = z
}

func BenchmarkE2SquareRandom(b *testing.B) {
	x, _ := randomE2Operands()
	var z E2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&x[i%randomOperandCount])
	}
	_ = z
}
