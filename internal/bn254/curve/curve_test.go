package curve

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
)

func randFr(rng *rand.Rand) fr.Element {
	var e fr.Element
	b := make([]byte, 40)
	rng.Read(b)
	e.SetBigInt(new(big.Int).SetBytes(b))
	return e
}

func randG1(rng *rand.Rand) G1Jac {
	k := randFr(rng)
	g := G1Generator()
	var p G1Jac
	p.ScalarMul(&g, &k)
	return p
}

func randG2(rng *rand.Rand) G2Jac {
	k := randFr(rng)
	g := G2Generator()
	var p G2Jac
	p.ScalarMul(&g, &k)
	return p
}

func TestG1GeneratorOrder(t *testing.T) {
	g := G1Generator()
	var p G1Jac
	p.ScalarMulBig(&g, GroupOrder())
	if !p.IsInfinity() {
		t.Fatal("r·G1 != infinity")
	}
	var aff G1Affine
	aff.FromJacobian(&g)
	if !aff.IsOnCurve() || !aff.IsInSubgroup() {
		t.Fatal("G1 generator invalid")
	}
}

func TestG2GeneratorOrder(t *testing.T) {
	g := G2Generator()
	var p G2Jac
	p.ScalarMulBig(&g, GroupOrder())
	if !p.IsInfinity() {
		t.Fatal("r·G2 != infinity")
	}
	var aff G2Affine
	aff.FromJacobian(&g)
	if !aff.IsOnCurve() || !aff.IsInSubgroup() {
		t.Fatal("G2 generator invalid")
	}
}

func TestG1GroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 20; i++ {
		p := randG1(rng)
		q := randG1(rng)
		r := randG1(rng)

		// Commutativity.
		var pq, qp G1Jac
		pq.Set(&p)
		pq.AddAssign(&q)
		qp.Set(&q)
		qp.AddAssign(&p)
		if !pq.Equal(&qp) {
			t.Fatal("G1 addition not commutative")
		}

		// Associativity.
		var l, rr G1Jac
		l.Set(&p)
		l.AddAssign(&q)
		l.AddAssign(&r)
		rr.Set(&q)
		rr.AddAssign(&r)
		rr.AddAssign(&p)
		if !l.Equal(&rr) {
			t.Fatal("G1 addition not associative")
		}

		// Inverse.
		var neg, sum G1Jac
		neg.Neg(&p)
		sum.Set(&p)
		sum.AddAssign(&neg)
		if !sum.IsInfinity() {
			t.Fatal("p + (-p) != infinity")
		}

		// Double == add self.
		var dbl, addSelf G1Jac
		dbl.Double(&p)
		addSelf.Set(&p)
		addSelf.AddAssign(&p)
		if !dbl.Equal(&addSelf) {
			t.Fatal("2p != p+p")
		}

		// Identity.
		var inf G1Jac
		inf.SetInfinity()
		var pi G1Jac
		pi.Set(&p)
		pi.AddAssign(&inf)
		if !pi.Equal(&p) {
			t.Fatal("p + 0 != p")
		}
	}
}

func TestG1MixedAddMatchesJacobian(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20; i++ {
		p := randG1(rng)
		q := randG1(rng)
		var qAff G1Affine
		qAff.FromJacobian(&q)

		var viaMixed, viaJac G1Jac
		viaMixed.Set(&p)
		viaMixed.AddMixed(&qAff)
		viaJac.Set(&p)
		viaJac.AddAssign(&q)
		if !viaMixed.Equal(&viaJac) {
			t.Fatal("mixed add mismatch")
		}
	}
	// Edge: mixed add of the same point must double.
	p := randG1(rng)
	var pAff G1Affine
	pAff.FromJacobian(&p)
	var viaMixed, viaDbl G1Jac
	viaMixed.Set(&p)
	viaMixed.AddMixed(&pAff)
	viaDbl.Double(&p)
	if !viaMixed.Equal(&viaDbl) {
		t.Fatal("mixed add doubling fallback broken")
	}
}

func TestG1ScalarMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := G1Generator()
	a := randFr(rng)
	b := randFr(rng)
	var ab fr.Element
	ab.Add(&a, &b)

	var pa, pb, pab, sum G1Jac
	pa.ScalarMul(&g, &a)
	pb.ScalarMul(&g, &b)
	pab.ScalarMul(&g, &ab)
	sum.Set(&pa)
	sum.AddAssign(&pb)
	if !pab.Equal(&sum) {
		t.Fatal("(a+b)G != aG + bG")
	}
}

func TestG2GroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 10; i++ {
		p := randG2(rng)
		q := randG2(rng)

		var pq, qp G2Jac
		pq.Set(&p)
		pq.AddAssign(&q)
		qp.Set(&q)
		qp.AddAssign(&p)
		if !pq.Equal(&qp) {
			t.Fatal("G2 addition not commutative")
		}

		var neg, sum G2Jac
		neg.Neg(&p)
		sum.Set(&p)
		sum.AddAssign(&neg)
		if !sum.IsInfinity() {
			t.Fatal("G2: p + (-p) != infinity")
		}

		var dbl, addSelf G2Jac
		dbl.Double(&p)
		addSelf.Set(&p)
		addSelf.AddAssign(&p)
		if !dbl.Equal(&addSelf) {
			t.Fatal("G2: 2p != p+p")
		}
	}
}

func TestG2ScalarMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := G2Generator()
	a := randFr(rng)
	b := randFr(rng)
	var ab fr.Element
	ab.Add(&a, &b)

	var pa, pb, pab, sum G2Jac
	pa.ScalarMul(&g, &a)
	pb.ScalarMul(&g, &b)
	pab.ScalarMul(&g, &ab)
	sum.Set(&pa)
	sum.AddAssign(&pb)
	if !pab.Equal(&sum) {
		t.Fatal("G2: (a+b)G != aG + bG")
	}
}

func TestMultiExpG1MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 2, 5, 33, 200} {
		points := make([]G1Affine, n)
		scalars := make([]fr.Element, n)
		var want G1Jac
		want.SetInfinity()
		for i := 0; i < n; i++ {
			p := randG1(rng)
			points[i].FromJacobian(&p)
			scalars[i] = randFr(rng)
			var term G1Jac
			term.ScalarMul(&p, &scalars[i])
			want.AddAssign(&term)
		}
		got := MultiExpG1(points, scalars)
		if !got.Equal(&want) {
			t.Fatalf("MSM G1 mismatch at n=%d", n)
		}
	}
}

func TestMultiExpG1ZeroScalarsAndInfinities(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	points := make([]G1Affine, 10)
	scalars := make([]fr.Element, 10)
	for i := range points {
		p := randG1(rng)
		points[i].FromJacobian(&p)
		if i%2 == 0 {
			scalars[i].SetZero()
		} else {
			scalars[i] = randFr(rng)
		}
	}
	points[3] = G1Affine{} // infinity
	var want G1Jac
	want.SetInfinity()
	for i := range points {
		var pj, term G1Jac
		pj.FromAffine(&points[i])
		term.ScalarMul(&pj, &scalars[i])
		want.AddAssign(&term)
	}
	got := MultiExpG1(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("MSM with zeros mismatch")
	}
}

func TestMultiExpG2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 20
	points := make([]G2Affine, n)
	scalars := make([]fr.Element, n)
	var want G2Jac
	want.SetInfinity()
	for i := 0; i < n; i++ {
		p := randG2(rng)
		points[i].FromJacobian(&p)
		scalars[i] = randFr(rng)
		var term G2Jac
		term.ScalarMul(&p, &scalars[i])
		want.AddAssign(&term)
	}
	got := MultiExpG2(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("MSM G2 mismatch")
	}
}

func TestG1CompressionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 50; i++ {
		p := randG1(rng)
		var aff G1Affine
		aff.FromJacobian(&p)
		enc := aff.Bytes()
		var dec G1Affine
		if err := dec.SetBytes(enc[:]); err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(&aff) {
			t.Fatal("G1 compression round trip failed")
		}
	}
	// Infinity.
	var inf G1Affine
	enc := inf.Bytes()
	var dec G1Affine
	if err := dec.SetBytes(enc[:]); err != nil {
		t.Fatal(err)
	}
	if !dec.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
	// Garbage.
	var bad G1Affine
	if err := bad.SetBytes(make([]byte, 5)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestG2CompressionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 10; i++ {
		p := randG2(rng)
		var aff G2Affine
		aff.FromJacobian(&p)
		enc := aff.Bytes()
		var dec G2Affine
		if err := dec.SetBytes(enc[:]); err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(&aff) {
			t.Fatal("G2 compression round trip failed")
		}
	}
}

func TestBatchJacToAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]G1Jac, 9)
	for i := range pts {
		if i == 4 {
			pts[i].SetInfinity()
			continue
		}
		pts[i] = randG1(rng)
	}
	affs := BatchJacToAffineG1(pts)
	for i := range pts {
		var want G1Affine
		want.FromJacobian(&pts[i])
		if !affs[i].Equal(&want) {
			t.Fatalf("batch affine conversion wrong at %d", i)
		}
	}
}

func TestScalarMulWNAFMatchesBinary(t *testing.T) {
	checkScalarMul[G1Affine](t, rand.New(rand.NewSource(43)), G1Generator(), 30,
		(*G1Jac).scalarMulBinary, (*G1Jac).Equal)
}

func TestScalarMulWNAFG2MatchesBinary(t *testing.T) {
	checkScalarMul[G2Affine](t, rand.New(rand.NewSource(44)), G2Generator(), 10,
		(*G2Jac).scalarMulBinary, (*G2Jac).Equal)
}

// checkScalarMul holds the wNAF ScalarMul to the binary ladder on random
// and small scalars, into a fresh point and into the base itself (prove
// and BatchVerify call it with dst aliasing the base), and checks the
// zero scalar and the infinity base.
func checkScalarMul[A, J any, P Jacobian[A, J]](t *testing.T, rng *rand.Rand, g J, rounds int,
	binary func(p, q *J, k *fr.Element) *J, equal func(p, q *J) bool) {
	t.Helper()
	ks := make([]fr.Element, rounds)
	for i := range ks {
		ks[i] = randFr(rng)
	}
	for _, small := range []uint64{1, 2, 3, 15, 16, 17} {
		var k fr.Element
		k.SetUint64(small)
		ks = append(ks, k)
	}
	for i := range ks {
		var want, got J
		binary(&want, &g, &ks[i])
		P(&got).ScalarMul(&g, &ks[i])
		if !equal(&want, &got) {
			t.Fatalf("wNAF mismatch at scalar %d (%s)", i, ks[i].String())
		}
		aliased := g
		P(&aliased).ScalarMul(&aliased, &ks[i])
		if !equal(&want, &aliased) {
			t.Fatalf("wNAF with dst aliasing the base mismatch at scalar %d (%s)", i, ks[i].String())
		}
	}
	var zero fr.Element
	var p J
	if P(&p).ScalarMul(&g, &zero); !P(&p).IsInfinity() {
		t.Fatal("0·G != infinity")
	}
	var inf J
	P(&inf).SetInfinity()
	k := randFr(rng)
	if P(&p).ScalarMul(&inf, &k); !P(&p).IsInfinity() {
		t.Fatal("k·infinity != infinity")
	}
}

func TestWNAFDigitsReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 50; i++ {
		k := new(big.Int).Rand(rng, GroupOrder())
		digits := wnafDigits(k, 4)
		got := big.NewInt(0)
		for j := len(digits) - 1; j >= 0; j-- {
			got.Lsh(got, 1)
			got.Add(got, big.NewInt(int64(digits[j])))
		}
		if got.Cmp(k) != 0 {
			t.Fatal("wNAF digits do not reconstruct the scalar")
		}
		for _, d := range digits {
			if d != 0 && d%2 == 0 {
				t.Fatal("non-zero wNAF digit is even")
			}
			if d > 15 || d < -15 {
				t.Fatal("wNAF digit out of range")
			}
		}
	}
}
