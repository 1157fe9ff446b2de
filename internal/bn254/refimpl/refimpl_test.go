package refimpl

import (
	"math/big"
	"math/rand"
	"testing"
)

// The oracle is trusted because it is simple, not because it agrees with
// the stack; these identities check the little it defines.

func TestModuliArePrime(t *testing.T) {
	for name, f := range map[string]*Field{"p": Fp, "r": Fr} {
		if !f.M.ProbablyPrime(32) || f.M.BitLen() != 254 {
			t.Errorf("%s = %v: want a 254-bit prime", name, f.M)
		}
	}
}

func randE2(rng *rand.Rand) E2 {
	return NewE2(new(big.Int).Rand(rng, Fp.M), new(big.Int).Rand(rng, Fp.M))
}

func randE12(rng *rand.Rand) E12 {
	var x E12
	for k := range x {
		x[k] = randE2(rng)
	}
	return x
}

func e2Exp(x E2, e *big.Int) E2 {
	z := E2One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		z = z.Mul(z)
		if e.Bit(i) == 1 {
			z = z.Mul(x)
		}
	}
	return z
}

// TestE2 checks u² = -1, inverses, and that ξ is neither a square nor a
// cube in F_p² — the condition for w⁶ - ξ to be irreducible, so that
// E12 is a field at all.
func TestE2(t *testing.T) {
	u := NewE2(new(big.Int), big.NewInt(1))
	if !u.Mul(u).Equal(E2One().Neg()) {
		t.Fatal("u² != -1")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		x := randE2(rng)
		if !x.Mul(x.Inverse()).Equal(E2One()) {
			t.Fatalf("x·x⁻¹ != 1 for %v", x)
		}
	}
	if !E2Zero().Inverse().Equal(E2Zero()) {
		t.Fatal("1/0 != 0")
	}
	order := new(big.Int).Mul(Fp.M, Fp.M)
	order.Sub(order, big.NewInt(1))
	for _, d := range []int64{2, 3} {
		e := new(big.Int).Div(order, big.NewInt(d))
		if e2Exp(Xi(), e).Equal(E2One()) {
			t.Fatalf("ξ is a %d-th power in F_p²", d)
		}
	}
}

// TestE12 checks w⁶ = ξ and that the product is commutative,
// associative and distributes over addition.
func TestE12(t *testing.T) {
	var w E12
	for k := range w {
		w[k] = E2Zero()
	}
	w[1] = E2One()
	want := E12One()
	want[0] = Xi()
	if !w.Exp(big.NewInt(6)).Equal(want) {
		t.Fatal("w⁶ != ξ")
	}
	rng := rand.New(rand.NewSource(2))
	a, b, c := randE12(rng), randE12(rng), randE12(rng)
	if !a.Mul(b).Equal(b.Mul(a)) {
		t.Fatal("a·b != b·a")
	}
	if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
		t.Fatal("(a·b)·c != a·(b·c)")
	}
	var bc E12
	for k := range bc {
		bc[k] = b[k].Add(c[k])
	}
	ab, ac, abc := a.Mul(b), a.Mul(c), a.Mul(bc)
	for k := range abc {
		if !abc[k].Equal(ab[k].Add(ac[k])) {
			t.Fatal("a·(b+c) != a·b + a·c")
		}
	}
}

// TestG1 checks the generator is on the curve, that r·G = ∞ while G ≠ ∞,
// and the group law's identities on a few multiples.
func TestG1(t *testing.T) {
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("(1, 2) is not on y² = x³ + 3")
	}
	if !g.ScalarMul(Fr.M).Equal(G1Infinity()) {
		t.Fatal("r·G != ∞")
	}
	if g.ScalarMul(big.NewInt(1)).Inf || !g.ScalarMul(new(big.Int)).Inf {
		t.Fatal("1·G or 0·G wrong")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		a, b := new(big.Int).Rand(rng, Fr.M), new(big.Int).Rand(rng, Fr.M)
		pa, pb := g.ScalarMul(a), g.ScalarMul(b)
		if !pa.IsOnCurve() || !pb.IsOnCurve() {
			t.Fatal("multiple of G off the curve")
		}
		if !pa.Add(pb).Equal(g.ScalarMul(Fr.Add(a, b))) {
			t.Fatal("a·G + b·G != (a+b)·G")
		}
		if !pa.Add(pb).Equal(pb.Add(pa)) || !pa.Add(pa).Equal(pa.Double()) {
			t.Fatal("p + q != q + p or p + p != 2p")
		}
		if !pa.Add(pa.Neg()).Inf || !pa.Add(G1Infinity()).Equal(pa) {
			t.Fatal("p + (-p) != ∞ or p + ∞ != p")
		}
	}
}

// e2Sqrt returns a square root of a in F_p² by the complex method
// (p ≡ 3 mod 4), and false when a is not a square.
func e2Sqrt(a E2) (E2, bool) {
	sqrtFp := func(n *big.Int) *big.Int {
		e := new(big.Int).Add(Fp.M, big.NewInt(1))
		return new(big.Int).Exp(n, e.Rsh(e, 2), Fp.M)
	}
	half := Fp.Inverse(big.NewInt(2))
	alpha := sqrtFp(Fp.Add(Fp.Mul(a.A0, a.A0), Fp.Mul(a.A1, a.A1)))
	for _, s := range []*big.Int{alpha, Fp.Neg(alpha)} {
		x0 := sqrtFp(Fp.Mul(Fp.Add(a.A0, s), half))
		if x0.Sign() == 0 {
			// a = a0 with -a0 square in F_p: the root is purely imaginary.
			r := NewE2(new(big.Int), sqrtFp(Fp.Neg(a.A0)))
			if r.Mul(r).Equal(a) {
				return r, true
			}
			continue
		}
		r := NewE2(x0, Fp.Mul(a.A1, Fp.Inverse(Fp.Add(x0, x0))))
		if r.Mul(r).Equal(a) {
			return r, true
		}
	}
	return E2{}, false
}

// twistPoint returns the point of E' with the smallest x = c (c = 1, 2,
// …, in F_p) that has one.
func twistPoint(t *testing.T) G2 {
	for c := int64(1); c < 64; c++ {
		x := NewE2(big.NewInt(c), new(big.Int))
		if y, ok := e2Sqrt(x.Mul(x).Mul(x).Add(TwistB())); ok {
			return NewG2(x, y)
		}
	}
	t.Fatal("no twist point with a small x")
	return G2{}
}

// TestG2 checks b'·ξ = 3 and the twist group law's identities on a point
// found by the test (the twist's full group: it need not lie in the
// order-r subgroup, so scalars stay plain integers).
func TestG2(t *testing.T) {
	if !TwistB().Mul(Xi()).Equal(NewE2(big.NewInt(3), new(big.Int))) {
		t.Fatal("b'·ξ != 3")
	}
	p := twistPoint(t)
	if !p.IsOnCurve() || p.Inf {
		t.Fatal("twist point off the twist")
	}
	if off := NewG2(p.X, p.Y.Add(E2One())); off.IsOnCurve() {
		t.Fatal("(x, y+1) on the twist")
	}
	q, r := p.ScalarMul(big.NewInt(5)), p.ScalarMul(big.NewInt(11))
	for _, pt := range []G2{q, r, q.Add(r), p.Double()} {
		if !pt.IsOnCurve() {
			t.Fatal("sum or multiple off the twist")
		}
	}
	if !q.Add(r).Equal(r.Add(q)) || !q.Add(r).Equal(p.ScalarMul(big.NewInt(16))) {
		t.Fatal("5P + 11P != 11P + 5P or != 16P")
	}
	if !q.Add(r).Add(p).Equal(q.Add(r.Add(p))) {
		t.Fatal("(q + r) + p != q + (r + p)")
	}
	if !q.Add(q).Equal(q.Double()) || !q.Add(q.Neg()).Inf || !q.Add(G2Infinity()).Equal(q) {
		t.Fatal("q + q != 2q, q + (-q) != ∞ or q + ∞ != q")
	}
	if !G2Infinity().Add(q).Equal(q) || !G2Infinity().Double().Inf || !q.ScalarMul(new(big.Int)).Inf {
		t.Fatal("∞ + q != q, 2∞ != ∞ or 0·q != ∞")
	}
}
