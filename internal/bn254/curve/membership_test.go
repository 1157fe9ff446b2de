package curve

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
)

// TestG2MembershipCertificate derives, from u = BNParamX alone, the two
// integer facts that make IsInSubgroup's endomorphism criterion exact
// (see the package comment): every point the test f(ψ) = 0 accepts has
// order dividing gcd(Res(f, χ), #E'(F_p²)) = r, and f(p) ≡ 0 (mod r), so
// every point of G2 — where ψ is multiplication by p — is accepted. It
// also re-derives p, r, t and the twist's group order, so none of them
// is taken on trust.
func TestG2MembershipCertificate(t *testing.T) {
	u := new(big.Int).SetUint64(BNParamX)
	// poly(c₀, c₁, …) = c₀ + c₁u + c₂u² + …
	poly := func(c ...int64) *big.Int {
		v := new(big.Int)
		for i := len(c) - 1; i >= 0; i-- {
			v.Mul(v, u)
			v.Add(v, big.NewInt(c[i]))
		}
		return v
	}
	mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
	add := func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }
	sub := func(a, b *big.Int) *big.Int { return new(big.Int).Sub(a, b) }
	one, two, three := big.NewInt(1), big.NewInt(2), big.NewInt(3)

	p := poly(1, 6, 24, 36, 36)
	r := poly(1, 6, 18, 36, 36)
	tr := poly(1, 0, 6) // trace of Frobenius on E(F_p)
	if p.Cmp(fp.Modulus()) != 0 {
		t.Fatal("p is not 36u⁴+36u³+24u²+6u+1")
	}
	if r.Cmp(GroupOrder()) != 0 {
		t.Fatal("r is not 36u⁴+36u³+18u²+6u+1")
	}
	if sub(add(p, one), tr).Cmp(r) != 0 {
		t.Fatal("#E(F_p) = p + 1 - t is not r")
	}

	// #E'(F_p²). Over F_p² the curve has trace t₂ = t² - 2p and, with
	// 4p - t² = 3f², conductor f₂ = t·f; its two sextic twists have
	// orders p² + 1 - (t₂ ± 3f₂)/2. The one r divides is r·(2p - r).
	f := poly(1, 4, 6)
	if sub(mul(big.NewInt(4), p), mul(tr, tr)).Cmp(mul(three, mul(f, f))) != 0 {
		t.Fatal("4p - t² is not 3(6u²+4u+1)²")
	}
	t2 := sub(mul(tr, tr), mul(two, p))
	twistTrace := add(t2, mul(three, mul(tr, f)))
	if twistTrace.Bit(0) != 0 {
		t.Fatal("t₂ + 3f₂ is odd")
	}
	twistTrace.Rsh(twistTrace, 1)
	h := sub(mul(two, p), r)
	n := mul(r, h)
	if sub(add(mul(p, p), one), twistTrace).Cmp(n) != 0 {
		t.Fatal("r·(2p - r) is not the sextic-twist order p² + 1 - (t₂ + 3f₂)/2")
	}
	if h.Cmp(&g2Cofactor) != 0 {
		t.Fatal("g2Cofactor is not 2p - r")
	}
	if new(big.Int).Mod(h, r).Sign() == 0 {
		t.Fatal("r divides the cofactor: the r-torsion of E'(F_p²) would not be G2 alone")
	}
	// ... and it is the order of THIS twist (b' = 3/ξ), not the other one:
	// it kills a point that is not in G2.
	q := randTwistPoint(rand.New(rand.NewSource(1)))
	var j G2Jac
	j.FromAffine(&q)
	if j.ScalarMulBig(&j, n); !j.IsInfinity() {
		t.Fatal("r·(2p - r) does not kill a random twist point")
	}

	// f(X) = (u+1) + uX + uX² - 2uX³ is what IsInSubgroup evaluates at ψ;
	// χ(X) = X² - tX + p is ψ's characteristic polynomial. Reduce f mod χ
	// with X² ≡ tX - p and X³ ≡ (t² - p)X - tp to a + bX.
	a := add(sub(add(u, one), mul(u, p)), mul(two, mul(u, mul(tr, p))))
	b := sub(add(u, mul(u, tr)), mul(two, mul(u, sub(mul(tr, tr), p))))
	// Res(a + bX, χ) = b²·χ(-a/b) = a² + abt + b²p, an integer combination
	// of f and χ, so it kills whatever both f(ψ) and χ(ψ) kill.
	res := add(add(mul(a, a), mul(mul(a, b), tr)), mul(mul(b, b), p))
	if g := new(big.Int).GCD(nil, nil, res.Abs(res), n); g.Cmp(r) != 0 {
		t.Fatalf("gcd(Res(f, χ), #E') = %v, want r: a point passing the test need not have order r", g)
	}

	// Completeness: f(p) ≡ 0 (mod r).
	p2 := mul(p, p)
	fAtP := add(add(u, one), mul(u, p))
	fAtP.Add(fAtP, mul(u, p2))
	fAtP.Sub(fAtP, mul(two, mul(u, mul(p2, p))))
	if fAtP.Mod(fAtP, r).Sign() != 0 {
		t.Fatal("f(p) ≢ 0 (mod r): the test would reject points of G2")
	}
}

// randTwistPoint returns a uniformly chosen affine point of E'(F_p²) with
// no cofactor clearing: outside G2 with overwhelming probability.
func randTwistPoint(rng *rand.Rand) G2Affine {
	randFp := func() (e fp.Element) {
		b := make([]byte, 48)
		rng.Read(b)
		e.SetBigInt(new(big.Int).SetBytes(b))
		return e
	}
	for {
		q := G2Affine{X: ext.E2{A0: randFp(), A1: randFp()}}
		var rhs ext.E2
		rhs.Square(&q.X)
		rhs.Mul(&rhs, &q.X)
		rhs.Add(&rhs, &twistB)
		if q.Y.Sqrt(&rhs) != nil {
			return q
		}
	}
}

// smallCofactorPrimes returns the prime factors of 2p - r below 2²³, by
// trial division.
func smallCofactorPrimes() []uint64 {
	var hb [32]byte
	g2Cofactor.FillBytes(hb[:])
	var primes []uint64
	for d := uint64(2); d < 1<<23; d++ {
		var rem uint64
		for i := 0; i < 32; i += 8 {
			_, rem = bits.Div64(rem, binary.BigEndian.Uint64(hb[i:]), d)
		}
		if rem != 0 {
			continue
		}
		isPrime := true
		for _, q := range primes {
			isPrime = isPrime && d%q != 0
		}
		if isPrime {
			primes = append(primes, d)
		}
	}
	return primes
}

// TestG2MembershipMatchesReference holds the endomorphism criterion to
// [r]Q = ∞ on the points most likely to tell them apart.
func TestG2MembershipMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(name string, q *G2Affine, want bool) {
		t.Helper()
		if ref := refG2IsInSubgroup(q); ref != want {
			t.Fatalf("%s: reference says %v, the case was built to be %v", name, ref, want)
		}
		if got := q.IsInSubgroup(); got != want {
			t.Errorf("%s: IsInSubgroup = %v, [r]Q = ∞ is %v", name, got, want)
		}
	}

	var inf G2Affine
	check("∞", &inf, true)
	gen := G2GeneratorAffine()
	check("generator", &gen, true)
	offCurve := gen
	offCurve.Y.Add(&offCurve.Y, &gen.X)
	check("off-curve point", &offCurve, false)

	n := 16
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		var q G2Affine
		j := randG2(rng)
		q.FromJacobian(&j)
		check("random G2 point", &q, true)
		q.Neg(&q)
		check("negated G2 point", &q, true)
		q = randTwistPoint(rng)
		check("random twist point", &q, false)
	}

	// Points of small prime order ℓ | 2p - r, as [#E'/ℓ]T, alone and
	// added to a point of G2: the cheapest things an attacker can build.
	primes := smallCofactorPrimes()
	if len(primes) != 2 || primes[0] != 10069 || primes[1] != 5864401 {
		t.Fatalf("prime factors of 2p - r below 2²³: %v, want [10069 5864401]", primes)
	}
	order := new(big.Int).Mul(GroupOrder(), &g2Cofactor)
	for _, l := range primes {
		ell := new(big.Int).SetUint64(l)
		var pt G2Jac
		for pt.SetInfinity(); pt.IsInfinity(); {
			tw := randTwistPoint(rng)
			pt.FromAffine(&tw)
			pt.ScalarMulBig(&pt, new(big.Int).Div(order, ell))
		}
		var chk G2Jac
		if chk.ScalarMulBig(&pt, ell); !chk.IsInfinity() {
			t.Fatalf("built a point whose order is not %d", l)
		}
		var q G2Affine
		q.FromJacobian(&pt)
		check("point of order "+ell.String(), &q, false)
		g := randG2(rng)
		g.AddAssign(&pt)
		q.FromJacobian(&g)
		check("G2 point plus a point of order "+ell.String(), &q, false)
	}
}

func BenchmarkG2IsInSubgroup(b *testing.B) {
	j := randG2(rand.New(rand.NewSource(5)))
	var q G2Affine
	q.FromJacobian(&j)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.IsInSubgroup() {
			b.Fatal("G2 point rejected")
		}
	}
}

func BenchmarkG2SetBytes(b *testing.B) {
	j := randG2(rand.New(rand.NewSource(5)))
	var q G2Affine
	q.FromJacobian(&j)
	enc := q.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.SetBytes(enc[:]); err != nil {
			b.Fatal(err)
		}
	}
}
