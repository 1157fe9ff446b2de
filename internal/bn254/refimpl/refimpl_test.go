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
