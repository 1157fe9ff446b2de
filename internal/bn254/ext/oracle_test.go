package ext

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/refimpl"
)

// The differential gate against internal/bn254/refimpl: F_p² against its
// math/big pairs, and F_p¹² against one polynomial ring F_p²[w]/(w⁶ − ξ)
// that shares no structure with the E6/E12 tower. Coordinates cross as
// raw Montgomery limbs with R and R⁻¹ applied in math/big, so the bridge
// does not lean on the fp.Mul under test.

var (
	montR    = refimpl.Fp.Reduce(new(big.Int).Lsh(big.NewInt(1), 256))
	montRInv = refimpl.Fp.Inverse(montR)
)

// rawFp decodes 32 big-endian bytes as an element's raw limbs, reduced
// mod p as every fp.Element is.
func rawFp(b []byte) fp.Element {
	var buf [fp.Bytes]byte
	refimpl.Fp.Reduce(new(big.Int).SetBytes(b)).FillBytes(buf[:])
	var z fp.Element
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[fp.Bytes-8*(i+1):])
	}
	return z
}

func oracleFp(z *fp.Element) *big.Int {
	var buf [fp.Bytes]byte
	for i := range z {
		binary.BigEndian.PutUint64(buf[fp.Bytes-8*(i+1):], z[i])
	}
	return refimpl.Fp.Mul(new(big.Int).SetBytes(buf[:]), montRInv)
}

func fromOracleFp(v *big.Int) fp.Element {
	var buf [fp.Bytes]byte
	refimpl.Fp.Mul(v, montR).FillBytes(buf[:])
	return rawFp(buf[:])
}

func oracleE2(z *E2) refimpl.E2 { return refimpl.E2{A0: oracleFp(&z.A0), A1: oracleFp(&z.A1)} }

func fromOracleE2(z refimpl.E2) E2 { return E2{fromOracleFp(z.A0), fromOracleFp(z.A1)} }

// towerSlots lists the tower coefficient at each power of w: C0.B0 → w⁰,
// C1.B0 → w¹, C0.B1 → w², C1.B1 → w³, C0.B2 → w⁴, C1.B2 → w⁵ (v = w²).
func towerSlots(z *E12) [6]*E2 {
	return [6]*E2{&z.C0.B0, &z.C1.B0, &z.C0.B1, &z.C1.B1, &z.C0.B2, &z.C1.B2}
}

func oracleE12(z *E12) (o refimpl.E12) {
	for k, c := range towerSlots(z) {
		o[k] = oracleE2(c)
	}
	return o
}

func fromOracleE12(o refimpl.E12) (z E12) {
	for k, c := range towerSlots(&z) {
		*c = fromOracleE2(o[k])
	}
	return z
}

// e2ArithSeeds builds x = (v_i, v_j), y = (v_j, v_i) over the raw
// boundary values 0, 1, p−1, p−2, (p±1)/2 and saturated limbs, so each
// coordinate's raw sums and differences land on and beside p and 0.
func e2ArithSeeds() [][]byte {
	m := refimpl.Fp.M
	one := big.NewInt(1)
	half := new(big.Int).Rsh(m, 1)
	values := []*big.Int{
		new(big.Int), one,
		new(big.Int).Sub(m, one), new(big.Int).Sub(m, big.NewInt(2)),
		half, new(big.Int).Add(half, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	}
	var seeds [][]byte
	for _, a := range values {
		for _, b := range values {
			seed := make([]byte, 128)
			for k, v := range []*big.Int{a, b, b, a} {
				v.FillBytes(seed[32*k : 32*(k+1)])
			}
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

// FuzzE2Arith holds every F_p² op, out of place and in each aliasing
// form, to the math/big oracle.
func FuzzE2Arith(f *testing.F) {
	for _, seed := range e2ArithSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkE2Arith)
}

// checkE2Arith is FuzzE2Arith's body: every op on the two elements data
// spells, against the oracle.
func checkE2Arith(t *testing.T, data []byte) {
	if len(data) < 128 {
		return
	}
	x := E2{rawFp(data[:32]), rawFp(data[32:64])}
	y := E2{rawFp(data[64:96]), rawFp(data[96:128])}
	xo, yo := oracleE2(&x), oracleE2(&y)
	check := func(op string, got *E2, want refimpl.E2) {
		t.Helper()
		if g := oracleE2(got); !g.Equal(want) || fromOracleE2(g) != *got {
			t.Fatalf("%s(x=%v, y=%v) = %v, want %v", op, xo, yo, g, want)
		}
	}

	binops := []struct {
		name string
		op   func(z, x, y *E2) *E2
		want func(x, y refimpl.E2) refimpl.E2
	}{
		{"Add", (*E2).Add, refimpl.E2.Add},
		{"Sub", (*E2).Sub, refimpl.E2.Sub},
		{"Mul", (*E2).Mul, refimpl.E2.Mul},
	}
	for _, b := range binops {
		var z E2
		check(b.name, b.op(&z, &x, &y), b.want(xo, yo))
		z = x
		check(b.name+"(z=x)", b.op(&z, &z, &y), b.want(xo, yo))
		z = y
		check(b.name+"(z=y)", b.op(&z, &x, &z), b.want(xo, yo))
		z = x
		check(b.name+"(z=x=y)", b.op(&z, &z, &z), b.want(xo, xo))
	}

	unops := []struct {
		name string
		op   func(z, x *E2) *E2
		want func(x refimpl.E2) refimpl.E2
	}{
		{"Double", (*E2).Double, func(x refimpl.E2) refimpl.E2 { return x.Add(x) }},
		{"Neg", (*E2).Neg, refimpl.E2.Neg},
		{"Conjugate", (*E2).Conjugate, refimpl.E2.Conjugate},
		{"Square", (*E2).Square, func(x refimpl.E2) refimpl.E2 { return x.Mul(x) }},
		{"MulByNonResidue", (*E2).MulByNonResidue, func(x refimpl.E2) refimpl.E2 { return x.Mul(refimpl.Xi()) }},
		{"MulByElement(y.A0)", func(z, x *E2) *E2 { return z.MulByElement(x, &y.A0) }, func(x refimpl.E2) refimpl.E2 { return x.Scale(yo.A0) }},
		{"Inverse", (*E2).Inverse, refimpl.E2.Inverse},
	}
	for _, u := range unops {
		var z E2
		check(u.name, u.op(&z, &x), u.want(xo))
		z = x
		check(u.name+"(z=x)", u.op(&z, &z), u.want(xo))
	}
}

// lazyReductionSeeds are x||y inputs at the edges of the lazy-reduction
// kernel's bounds, in raw limbs: a0·b0 < a1·b1 (c0's difference borrows
// and p·2²⁵⁶ is added back), a0 + a1 ≥ p and b0 + b1 ≥ p (the
// unreduced sums pass p), every coordinate p − 1 (the largest products),
// mixed 0 and 1, and a0 − a1 + p at its extremes for Square.
func lazyReductionSeeds() [][]byte {
	m := refimpl.Fp.M
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(m, one)
	half := new(big.Int).Rsh(m, 1)
	halfUp := new(big.Int).Add(half, one)
	zero := new(big.Int)
	seed := func(a0, a1, b0, b1 *big.Int) []byte {
		s := make([]byte, 128)
		for k, v := range []*big.Int{a0, a1, b0, b1} {
			v.FillBytes(s[32*k : 32*(k+1)])
		}
		return s
	}
	return [][]byte{
		seed(one, pm1, one, pm1),             // a0·b0 = 1 < a1·b1
		seed(zero, pm1, zero, pm1),           // a0·b0 = 0
		seed(halfUp, halfUp, halfUp, halfUp), // sums p + 1
		seed(pm1, pm1, pm1, pm1),             // sums 2p − 2
		seed(pm1, one, one, pm1),             // sums exactly p
		seed(zero, zero, zero, zero),
		seed(one, zero, one, zero),
		seed(zero, one, zero, one), // u·u = −1
		seed(zero, pm1, pm1, zero), // a0 − a1 + p = 1
		seed(pm1, zero, zero, pm1), // a0 − a1 + p = 2p − 1
	}
}

// FuzzE2MulBackends holds the build's F_p² Mul and Square — the ADX
// kernel on amd64 with ADX+BMI2 — to the portable core bit for bit and
// to the math/big oracle, in every aliasing form. On a build without the
// kernel both sides run the portable core and the first comparison is a
// self-check.
func FuzzE2MulBackends(f *testing.F) {
	for _, seed := range append(lazyReductionSeeds(), e2ArithSeeds()...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 128 {
			return
		}
		x := E2{rawFp(data[:32]), rawFp(data[32:64])}
		y := E2{rawFp(data[64:96]), rawFp(data[96:128])}
		xo, yo := oracleE2(&x), oracleE2(&y)
		var mulWant, sqWant E2
		mulGeneric(&mulWant, &x, &y)
		squareGeneric(&sqWant, &x)
		if g := oracleE2(&mulWant); !g.Equal(xo.Mul(yo)) {
			t.Fatalf("portable Mul(%v, %v) = %v, oracle %v", xo, yo, g, xo.Mul(yo))
		}
		if g := oracleE2(&sqWant); !g.Equal(xo.Mul(xo)) {
			t.Fatalf("portable Square(%v) = %v, oracle %v", xo, g, xo.Mul(xo))
		}
		check := func(op string, got, want E2) {
			t.Helper()
			if got != want {
				t.Fatalf("%s(x=%v, y=%v): backend %v, portable core %v", op, xo, yo, got, want)
			}
		}
		var z E2
		check("Mul", *z.Mul(&x, &y), mulWant)
		z = x
		check("Mul(z=x)", *z.Mul(&z, &y), mulWant)
		z = y
		check("Mul(z=y)", *z.Mul(&x, &z), mulWant)
		var xx E2
		mulGeneric(&xx, &x, &x)
		z = x
		check("Mul(z=x=y)", *z.Mul(&z, &z), xx)
		check("Square", *z.Square(&x), sqWant)
		z = x
		check("Square(z=x)", *z.Square(&z), sqWant)
	})
}

// cyclotomicExponent is (p⁶−1)(p²+1), the easy part of the final
// exponentiation: f raised to it has order dividing p⁴ − p² + 1, the
// subgroup CyclotomicSquare is defined on.
func cyclotomicExponent() *big.Int {
	p := refimpl.Fp.M
	p2 := new(big.Int).Mul(p, p)
	p6 := new(big.Int).Exp(p, big.NewInt(6), nil)
	e := new(big.Int).Sub(p6, big.NewInt(1))
	return e.Mul(e, new(big.Int).Add(p2, big.NewInt(1)))
}

// TestE12AgainstRefimpl holds the tower's Mul and Square — each aliasing
// form — to the polynomial ring on seeded random elements and on the
// boundary shapes (0, 1, every coordinate raw p−1, one slot set), and
// CyclotomicSquare to the oracle's square on elements the oracle itself
// raised into the cyclotomic subgroup.
func TestE12AgainstRefimpl(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	var zero, one, edge E12
	one.SetOne()
	pm1 := rawFp(new(big.Int).Sub(refimpl.Fp.M, big.NewInt(1)).Bytes())
	for _, c := range towerSlots(&edge) {
		*c = E2{pm1, pm1}
	}
	operands := []E12{zero, one, edge}
	for k := range 6 {
		var slot E12
		*towerSlots(&slot)[k] = randE2(rng)
		operands = append(operands, slot)
	}
	for range 6 {
		operands = append(operands, randE12(rng))
	}

	check := func(op string, got *E12, want refimpl.E12) {
		t.Helper()
		if !oracleE12(got).Equal(want) {
			t.Fatalf("%s disagrees with the oracle", op)
		}
	}
	for i := range operands {
		x := operands[i]
		y := operands[(i+5)%len(operands)]
		xo, yo := oracleE12(&x), oracleE12(&y)
		var z E12
		check("Mul", z.Mul(&x, &y), xo.Mul(yo))
		z = x
		check("Mul(z=x)", z.Mul(&z, &y), xo.Mul(yo))
		z = y
		check("Mul(z=y)", z.Mul(&x, &z), xo.Mul(yo))
		check("Square", z.Square(&x), xo.Mul(xo))
		z = x
		check("Square(z=x)", z.Square(&z), xo.Mul(xo))
	}

	e := cyclotomicExponent()
	for i := range 2 {
		f := oracleE12(&operands[len(operands)-1-i])
		c := f.Exp(e)
		x := fromOracleE12(c)
		var z E12
		check("CyclotomicSquare", z.CyclotomicSquare(&x), c.Mul(c))
		z = x
		check("CyclotomicSquare(z=x)", z.CyclotomicSquare(&z), c.Mul(c))
	}
}
