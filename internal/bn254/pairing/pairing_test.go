package pairing

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fr"
)

func randFr(rng *rand.Rand) fr.Element {
	var e fr.Element
	b := make([]byte, 40)
	rng.Read(b)
	e.SetBigInt(new(big.Int).SetBytes(b))
	return e
}

func g1Aff(k *fr.Element) curve.G1Affine {
	g := curve.G1Generator()
	var j curve.G1Jac
	j.ScalarMul(&g, k)
	var a curve.G1Affine
	a.FromJacobian(&j)
	return a
}

func g2Aff(k *fr.Element) curve.G2Affine {
	g := curve.G2Generator()
	var j curve.G2Jac
	j.ScalarMul(&g, k)
	var a curve.G2Affine
	a.FromJacobian(&j)
	return a
}

func TestNAFReconstruction(t *testing.T) {
	// The NAF digits must reconstruct 6x₀+2.
	want := new(big.Int).SetUint64(BNParamX)
	want.Mul(want, big.NewInt(6))
	want.Add(want, big.NewInt(2))
	got := big.NewInt(0)
	for _, d := range ateLoopNAF {
		got.Lsh(got, 1)
		got.Add(got, big.NewInt(int64(d)))
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("NAF reconstructs %s, want %s", got, want)
	}
	// Non-adjacency property.
	for i := 1; i < len(ateLoopNAF); i++ {
		if ateLoopNAF[i] != 0 && ateLoopNAF[i-1] != 0 {
			t.Fatal("adjacent non-zero NAF digits")
		}
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()
	e := Pair(&p, &q)
	if e.IsOne() || e.IsZero() {
		t.Fatal("e(G1, G2) is degenerate")
	}
	// e must land in the order-r subgroup of GT: e^r == 1.
	var chk ext.E12
	chk.Exp(&e, curve.GroupOrder())
	if !chk.IsOne() {
		t.Fatal("pairing output not of order dividing r")
	}
}

func TestPairingBilinearLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := randFr(rng)
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()
	pa := g1Aff(&a)

	// e(aP, Q) == e(P, Q)^a
	left := Pair(&pa, &q)
	base := Pair(&p, &q)
	var right ext.E12
	right.Exp(&base, a.ToBigInt())
	if !left.Equal(&right) {
		t.Fatal("e(aP, Q) != e(P, Q)^a")
	}
}

func TestPairingBilinearRight(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	b := randFr(rng)
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()
	qb := g2Aff(&b)

	left := Pair(&p, &qb)
	base := Pair(&p, &q)
	var right ext.E12
	right.Exp(&base, b.ToBigInt())
	if !left.Equal(&right) {
		t.Fatal("e(P, bQ) != e(P, Q)^b")
	}
}

func TestPairingBilinearBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := randFr(rng)
	b := randFr(rng)
	pa := g1Aff(&a)
	qb := g2Aff(&b)
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()

	left := Pair(&pa, &qb)
	base := Pair(&p, &q)
	var ab fr.Element
	ab.Mul(&a, &b)
	var right ext.E12
	right.Exp(&base, ab.ToBigInt())
	if !left.Equal(&right) {
		t.Fatal("e(aP, bQ) != e(P, Q)^(ab)")
	}
}

func TestPairingAdditiveInFirstArg(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randFr(rng)
	b := randFr(rng)
	q := curve.G2GeneratorAffine()
	pa := g1Aff(&a)
	pb := g1Aff(&b)
	var sum fr.Element
	sum.Add(&a, &b)
	pab := g1Aff(&sum)

	left := Pair(&pab, &q)
	ea := Pair(&pa, &q)
	eb := Pair(&pb, &q)
	var right ext.E12
	right.Mul(&ea, &eb)
	if !left.Equal(&right) {
		t.Fatal("e(P+R, Q) != e(P, Q)·e(R, Q)")
	}
}

func TestPairingInfinity(t *testing.T) {
	var infG1 curve.G1Affine
	var infG2 curve.G2Affine
	q := curve.G2GeneratorAffine()
	p := curve.G1GeneratorAffine()
	if e := Pair(&infG1, &q); !e.IsOne() {
		t.Fatal("e(0, Q) != 1")
	}
	if e := Pair(&p, &infG2); !e.IsOne() {
		t.Fatal("e(P, 0) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	a := randFr(rng)
	b := randFr(rng)
	var ab fr.Element
	ab.Mul(&a, &b)

	// e(aG1, bG2) · e(-abG1, G2) == 1
	pa := g1Aff(&a)
	qb := g2Aff(&b)
	pab := g1Aff(&ab)
	var pabNeg curve.G1Affine
	pabNeg.Neg(&pab)
	q := curve.G2GeneratorAffine()

	if !PairingCheck(
		[]*curve.G1Affine{&pa, &pabNeg},
		[]*curve.G2Affine{&qb, &q},
	) {
		t.Fatal("valid pairing product rejected")
	}

	// Tampered product must fail.
	if PairingCheck(
		[]*curve.G1Affine{&pa, &pab},
		[]*curve.G2Affine{&qb, &q},
	) {
		t.Fatal("invalid pairing product accepted")
	}
}

func TestPsiIsFrobeniusEndomorphism(t *testing.T) {
	// ψ must map subgroup points to subgroup points and satisfy the BN
	// eigenvalue identity ψ(Q) = p·Q on the order-r subgroup.
	rng := rand.New(rand.NewSource(55))
	k := randFr(rng)
	q := g2Aff(&k)
	var q1 curve.G2Affine
	q1.Psi(&q)
	if !q1.IsOnCurve() {
		t.Fatal("ψ(Q) not on twist")
	}
	var j, want curve.G2Jac
	j.FromAffine(&q)
	want.ScalarMulBig(&j, curve.GroupOrder()) // sanity: r·Q = ∞
	if !want.IsInfinity() {
		t.Fatal("test point not in subgroup")
	}
	var pQ curve.G2Jac
	pQ.FromAffine(&q)
	pmod := new(big.Int).Mod(fpModulusForTest(), curve.GroupOrder())
	pQ.ScalarMulBig(&pQ, pmod)
	var q1j curve.G2Jac
	q1j.FromAffine(&q1)
	if !q1j.Equal(&pQ) {
		t.Fatal("ψ(Q) != p·Q on the order-r subgroup")
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MillerLoop(&p, &q)
	}
}

func BenchmarkFullPairing(b *testing.B) {
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Pair(&p, &q)
	}
}

// fpModulusForTest avoids an import cycle nuisance in the ψ test.
func fpModulusForTest() *big.Int {
	v, _ := new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	return v
}

func BenchmarkFinalExponentiation(b *testing.B) {
	p := curve.G1GeneratorAffine()
	q := curve.G2GeneratorAffine()
	f := MillerLoop(&p, &q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FinalExponentiation(&f)
	}
}

// BenchmarkPairingCheck3 is the Groth16 check on raw points: three
// pairs, every table built on the fly.
func BenchmarkPairingCheck3(b *testing.B) {
	ps, qs := randomPairs(rand.New(rand.NewSource(56)), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PairingCheck(ps, qs)
	}
}

func BenchmarkPrecomputeLines(b *testing.B) {
	q := curve.G2GeneratorAffine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PrecomputeLines(&q)
	}
}
