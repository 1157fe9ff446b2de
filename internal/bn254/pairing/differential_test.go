package pairing

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
)

func randFp(rng *rand.Rand) fp.Element {
	var e fp.Element
	b := make([]byte, 40)
	rng.Read(b)
	e.SetBigInt(new(big.Int).SetBytes(b))
	return e
}

// refMillerProduct is the product the production code must reproduce bit
// for bit: one textbook loop per pair, multiplied together.
func refMillerProduct(ps []*curve.G1Affine, qs []*curve.G2Affine) ext.E12 {
	var acc ext.E12
	acc.SetOne()
	for i := range ps {
		f := refMillerLoop(ps[i], qs[i])
		acc.Mul(&acc, &f)
	}
	return acc
}

// requireSameAsReference holds MillerProduct (with and without cached
// tables) and FinalExponentiation to the reference on one product.
func requireSameAsReference(t *testing.T, name string, ps []*curve.G1Affine, qs []*curve.G2Affine) {
	t.Helper()
	wantML := refMillerProduct(ps, qs)
	wantGT := refFinalExponentiation(&wantML)

	cached := make([]*Lines, len(qs))
	for i := range qs {
		cached[i] = PrecomputeLines(qs[i])
	}
	for _, c := range []struct {
		how    string
		cached []*Lines
	}{{"tables built on the fly", nil}, {"cached tables", cached}} {
		gotML := MillerProduct(ps, qs, c.cached)
		if !gotML.Equal(&wantML) {
			t.Fatalf("%s: Miller product differs from the reference (%s)", name, c.how)
		}
		gotGT := FinalExponentiation(&gotML)
		if !gotGT.Equal(&wantGT) {
			t.Fatalf("%s: GT value differs from the reference (%s)", name, c.how)
		}
	}
	if len(ps) == 1 {
		if got := MillerLoop(ps[0], qs[0]); !got.Equal(&wantML) {
			t.Fatalf("%s: MillerLoop differs from the reference", name)
		}
		if got := Pair(ps[0], qs[0]); !got.Equal(&wantGT) {
			t.Fatalf("%s: Pair differs from the reference", name)
		}
	}
	wantOne := wantGT.IsOne()
	if got := PairingCheck(ps, qs); got != wantOne {
		t.Fatalf("%s: PairingCheck = %v, reference product is one: %v", name, got, wantOne)
	}
	var k ext.E12
	k.Conjugate(&wantGT) // the inverse of a GT element
	if !PairingCheckLines(ps, qs, nil, &k) || !PairingCheckLines(ps, qs, cached, &k) {
		t.Fatalf("%s: product times its reference inverse is not one", name)
	}
}

func randomPairs(rng *rand.Rand, n int) ([]*curve.G1Affine, []*curve.G2Affine) {
	ps := make([]*curve.G1Affine, n)
	qs := make([]*curve.G2Affine, n)
	for i := range ps {
		a, b := randFr(rng), randFr(rng)
		p, q := g1Aff(&a), g2Aff(&b)
		ps[i], qs[i] = &p, &q
	}
	return ps, qs
}

// TestMatchesReference: Miller product AND GT value bit-equal to the
// textbook implementation on subgroup points in every product shape the
// verifiers use.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, n := range []int{1, 1, 1, 3, 8} {
		ps, qs := randomPairs(rng, n)
		requireSameAsReference(t, "random subgroup pairs", ps, qs)
	}
	gp, gq := curve.G1GeneratorAffine(), curve.G2GeneratorAffine()
	requireSameAsReference(t, "generators", []*curve.G1Affine{&gp}, []*curve.G2Affine{&gq})

	// ∞ in either slot, alone and inside a product.
	var inf1 curve.G1Affine
	var inf2 curve.G2Affine
	ps, qs := randomPairs(rng, 3)
	requireSameAsReference(t, "(∞, Q)", []*curve.G1Affine{&inf1}, qs[:1])
	requireSameAsReference(t, "(P, ∞)", ps[:1], []*curve.G2Affine{&inf2})
	requireSameAsReference(t, "(∞, ∞)", []*curve.G1Affine{&inf1}, []*curve.G2Affine{&inf2})
	requireSameAsReference(t, "∞ inside a product",
		[]*curve.G1Affine{ps[0], &inf1, ps[1], ps[2]},
		[]*curve.G2Affine{qs[0], qs[1], &inf2, qs[2]})
	requireSameAsReference(t, "empty product", nil, nil)
	var zero ext.E12
	if got, want := FinalExponentiation(&zero), refFinalExponentiation(&zero); !got.Equal(&want) || !got.IsZero() {
		t.Fatal("FinalExponentiation(0) != 0")
	}

	// (P, Q)·(P, -Q) reduces to one; so does (P, Q)·(-P, Q).
	var negQ curve.G2Affine
	negQ.Neg(qs[0])
	var negP curve.G1Affine
	negP.Neg(ps[0])
	requireSameAsReference(t, "(P, Q)(P, -Q)",
		[]*curve.G1Affine{ps[0], ps[0]}, []*curve.G2Affine{qs[0], &negQ})
	requireSameAsReference(t, "(P, Q)(-P, Q) among others",
		[]*curve.G1Affine{ps[1], ps[0], &negP}, []*curve.G2Affine{qs[1], qs[0], qs[0]})
	if !PairingCheck([]*curve.G1Affine{ps[0], ps[0]}, []*curve.G2Affine{qs[0], &negQ}) {
		t.Fatal("e(P, Q)·e(P, -Q) != 1")
	}
}

// TestLinesReuse: one table serves any number of products, and a table
// offered for the wrong point is ignored rather than believed.
func TestLinesReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	_, qs := randomPairs(rng, 2)
	fixed := PrecomputeLines(qs[0])
	for i := 0; i < 4; i++ {
		ps, varQ := randomPairs(rng, 2)
		pairQs := []*curve.G2Affine{varQ[0], qs[0]}
		want := refMillerProduct(ps, pairQs)
		if got := MillerProduct(ps, pairQs, []*Lines{nil, fixed}); !got.Equal(&want) {
			t.Fatalf("call %d through a reused table differs from the reference", i)
		}
	}

	ps, _ := randomPairs(rng, 2)
	want := refMillerProduct(ps, qs)
	stale := []*Lines{PrecomputeLines(qs[1]), fixed} // qs[0] is offered qs[1]'s table
	if got := MillerProduct(ps, qs, stale); !got.Equal(&want) {
		t.Fatal("a table built for another point was used")
	}
	var inf curve.G2Affine
	stale = []*Lines{PrecomputeLines(&inf), nil}
	if got := MillerProduct(ps, qs, stale); !got.Equal(&want) {
		t.Fatal("the table of ∞ was used for a finite point")
	}
	// ... and the table of a finite point is not used for ∞.
	if got := MillerProduct(ps[:1], []*curve.G2Affine{&inf}, []*Lines{fixed}); !got.IsOne() {
		t.Fatal("the table of a finite point was used for ∞")
	}
}

// twistPointWithX returns a point of the twist curve y² = x³ + b' with
// the given x-coordinate, if x³ + b' is a square.
func twistPointWithX(x *ext.E2) (curve.G2Affine, bool) {
	var q curve.G2Affine
	var rhs ext.E2
	rhs.Square(x)
	rhs.Mul(&rhs, x)
	b := curve.TwistB()
	rhs.Add(&rhs, &b)
	q.X.Set(x)
	if q.Y.Sqrt(&rhs) == nil {
		return q, false
	}
	return q, q.IsOnCurve()
}

// TestDegenerateStepsMatchReference drives the branches subgroup points
// never reach — a 2-torsion T doubled, T = ∞ mid-loop, the restart from
// ∞, T + (-T), and T + T inside an addition step — and requires the same
// bits as the step-by-step reference there too. The twist has no points
// of small order (its cofactor's least prime factor is 10069), so the
// inputs are hand-built coordinate pairs: neither the affine nor the
// Jacobian formulas use the curve constant, so (x, 0) behaves as a point
// of order 2 and (0, y) as a point of order 3 (of the curves
// y² = x³ - x³ and y² = x³ + y² they happen to lie on). A decoder would
// reject both; the pairing must still not depend on which of its two
// formulations ran.
func TestDegenerateStepsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := randFr(rng)
	p := g1Aff(&a)
	hp, hq := randomPairs(rng, 1)

	order2 := curve.G2Affine{X: ext.E2{A0: randFp(rng), A1: randFp(rng)}}
	order3 := curve.G2Affine{Y: ext.E2{A0: randFp(rng), A1: randFp(rng)}}
	for _, c := range []struct {
		name string
		q    curve.G2Affine
		want []lineKind // kinds the table must contain
	}{
		{"order-2 pair (x, 0)", order2, []lineKind{lineVertical, lineNone, lineSlope}},
		{"order-3 pair (0, y)", order3, []lineKind{lineVertical, lineNone, lineSlope}},
	} {
		kinds := map[lineKind]int{}
		for _, l := range PrecomputeLines(&c.q).lines {
			kinds[l.kind]++
		}
		for _, k := range c.want {
			if kinds[k] == 0 {
				t.Fatalf("%s: no step of kind %d; the test does not reach the branch it is for (%v)", c.name, k, kinds)
			}
		}
		requireSameAsReference(t, c.name, []*curve.G1Affine{&p}, []*curve.G2Affine{&c.q})
		requireSameAsReference(t, c.name+" in a product",
			[]*curve.G1Affine{hp[0], &p}, []*curve.G2Affine{hq[0], &c.q})
	}

	// A genuine twist point outside the order-r subgroup: no degenerate
	// steps, but no subgroup structure to lean on either.
	for {
		x := ext.E2{A0: randFp(rng), A1: randFp(rng)}
		q, ok := twistPointWithX(&x)
		if !ok {
			continue
		}
		if q.IsInSubgroup() {
			t.Fatal("random twist point landed in G2")
		}
		requireSameAsReference(t, "random non-subgroup twist point", []*curve.G1Affine{&p}, []*curve.G2Affine{&q})
		break
	}
}

// TestSubgroupTableShape pins what the doc comments say about a subgroup
// point's table: one slope line per step, no degenerate step anywhere
// (the chain ends at ψ³(Q), not at ∞).
func TestSubgroupTableShape(t *testing.T) {
	q := curve.G2GeneratorAffine()
	tbl := PrecomputeLines(&q)
	if len(tbl.lines) != len(ateSteps) {
		t.Fatalf("table has %d lines for %d steps", len(tbl.lines), len(ateSteps))
	}
	for k, l := range tbl.lines {
		if l.kind != lineSlope {
			t.Fatalf("step %d: line kind %d, want a slope line", k, l.kind)
		}
	}
}

// FuzzPairingReference: for fuzzed scalars a, b the production pairing
// e(aP, bQ) equals the reference pairing bit for bit, and both equal
// e(P, Q)^(ab).
func FuzzPairingReference(f *testing.F) {
	seed := func(a, b uint64) []byte {
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], a)
		binary.LittleEndian.PutUint64(buf[8:], b)
		return buf[:]
	}
	f.Add(seed(1, 1))
	f.Add(seed(0, 5))
	f.Add(seed(7, 0))
	f.Add(seed(2, 3))
	f.Add(seed(^uint64(0), BNParamX))
	f.Add(append(seed(6*BNParamX%(1<<63)+2, 1<<63), 0xff, 0x01, 0x80))
	f.Add([]byte("zero knowledge right of ownership for neural networks, 64 bytes!!"))

	gp, gq := curve.G1GeneratorAffine(), curve.G2GeneratorAffine()
	base := Pair(&gp, &gq)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Split the input into the two scalars (reduced mod r).
		var a, b fr.Element
		a.SetBigInt(new(big.Int).SetBytes(data[:len(data)/2]))
		b.SetBigInt(new(big.Int).SetBytes(data[len(data)/2:]))
		p, q := g1Aff(&a), g2Aff(&b)

		gotML, wantML := MillerLoop(&p, &q), refMillerLoop(&p, &q)
		if !gotML.Equal(&wantML) {
			t.Fatalf("Miller loop differs from the reference for a=%s b=%s", a.ToBigInt(), b.ToBigInt())
		}
		got, want := FinalExponentiation(&gotML), refFinalExponentiation(&wantML)
		if !got.Equal(&want) {
			t.Fatalf("GT value differs from the reference for a=%s b=%s", a.ToBigInt(), b.ToBigInt())
		}
		var ab fr.Element
		ab.Mul(&a, &b)
		var pow ext.E12
		pow.Exp(&base, ab.ToBigInt())
		if !got.Equal(&pow) {
			t.Fatalf("e(aP, bQ) != e(P, Q)^(ab) for a=%s b=%s", a.ToBigInt(), b.ToBigInt())
		}
	})
}
