package curve

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/lanes"
	"zkrownn/internal/bn254/refimpl"
)

// The differential gate for G2 against refimpl's affine twist group over
// math/big: the batch-affine flush on both backends, Jacobian add and
// double, and small MSMs. Coordinates cross through oracleFp, as in G1.

func oracleE2(z *ext.E2) refimpl.E2 { return refimpl.NewE2(oracleFp(&z.A0), oracleFp(&z.A1)) }

func fromOracleE2(v refimpl.E2) ext.E2 { return ext.E2{A0: fromOracleFp(v.A0), A1: fromOracleFp(v.A1)} }

func oracleG2(p *G2Affine) refimpl.G2 {
	if p.IsInfinity() {
		return refimpl.G2Infinity()
	}
	return refimpl.NewG2(oracleE2(&p.X), oracleE2(&p.Y))
}

func fromOracleG2(p refimpl.G2) G2Affine {
	if p.Inf {
		return G2Affine{}
	}
	return G2Affine{fromOracleE2(p.X), fromOracleE2(p.Y)}
}

func oracleG2Jac(p *G2Jac) refimpl.G2 {
	var a G2Affine
	a.FromJacobian(p)
	return oracleG2(&a)
}

// g2FlushTables returns k·G for k = 1..128, computed by refimpl from
// the stack's generator once the oracle has accepted it (on the twist,
// of order r), and the specials: the twist points (outside the subgroup)
// whose x has coordinates in {0, 1, p-1}, both signs of y.
var g2FlushTables = sync.OnceValues(func() (tables [2][]G2Affine, err error) {
	gen := G2GeneratorAffine()
	g := oracleG2(&gen)
	if !g.IsOnCurve() || g.Inf {
		return tables, errors.New("the stack's G2 generator is not a finite point of the oracle's twist")
	}
	if !g.ScalarMul(refimpl.Fr.M).Inf {
		return tables, errors.New("the stack's G2 generator does not have order r in the oracle")
	}
	acc := refimpl.G2Infinity()
	for range 128 {
		acc = acc.Add(g)
		tables[0] = append(tables[0], fromOracleG2(acc))
	}
	var pm1 fp.Element
	pm1.SetOne()
	pm1.Neg(&pm1)
	coords := []fp.Element{{}, fp.NewElement(1), pm1}
	b := TwistB()
	for _, a0 := range coords {
		for _, a1 := range coords {
			x := ext.E2{A0: a0, A1: a1}
			var rhs, y ext.E2
			rhs.Square(&x)
			rhs.Mul(&rhs, &x)
			rhs.Add(&rhs, &b)
			if y.Sqrt(&rhs) == nil {
				continue
			}
			p := G2Affine{x, y}
			if p.IsInfinity() || !oracleG2(&p).IsOnCurve() {
				continue
			}
			tables[1] = append(tables[1], p)
			p.Y.Neg(&p.Y)
			tables[1] = append(tables[1], p)
		}
	}
	return tables, nil
})

// g2FlushCase is buildFlushCase in G2.
func g2FlushCase(t *testing.T, n int, pattern []byte) (buckets []G2Affine, idx []int32, pts []G2Affine) {
	t.Helper()
	tables, err := g2FlushTables()
	if err != nil {
		t.Fatal(err)
	}
	return buildFlushCase(n, pattern, tables[0], tables[1], func(dst, src *G2Affine) { dst.Neg(src) })
}

// checkG2Flush holds both G2 flush backends to refimpl's sums.
func checkG2Flush(t *testing.T, buckets []G2Affine, idx []int32, pts []G2Affine) {
	t.Helper()
	checkFlushOf(t, newG2BatchAdder(len(idx)).flush,
		func(b, p *G2Affine) G2Affine { return fromOracleG2(oracleG2(b).Add(oracleG2(p))) },
		buckets, idx, pts)
}

// TestG2FlushAgainstRefimpl holds both G2 flush backends to refimpl on
// byte-built batches of every length up to a few lane blocks, and on the
// full chord batch of an MSM. Without IFMA the lane half is skipped with
// its reason logged; the scalar half runs everywhere.
func TestG2FlushAgainstRefimpl(t *testing.T) {
	t.Logf("G2 flush backend: %s", Backend())
	if !lanes.SupportIFMA {
		t.Log("no AVX-512 IFMA on this CPU: lane assertions skipped, scalar flush checked")
	}
	tables, err := g2FlushTables()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d twist points with x coordinates in {0, 1, p-1} among the specials", len(tables[1]))
	rng := rand.New(rand.NewSource(33))
	for n := 1; n <= 5*lanes.Width+3; n++ {
		pattern := make([]byte, 2*n+1)
		rng.Read(pattern)
		buckets, idx, pts := g2FlushCase(t, n, pattern)
		checkG2Flush(t, buckets, idx, pts)
	}
	jacs := make([]G2Jac, 2*msmBatchSize)
	g := G2Generator()
	jacs[0] = g
	for i := 1; i < len(jacs); i++ {
		jacs[i] = jacs[i-1]
		jacs[i].AddAssign(&g)
	}
	aff := BatchJacToAffineG2(jacs)
	idx := make([]int32, msmBatchSize)
	for i, k := range rng.Perm(msmBatchSize) {
		idx[i] = int32(k)
	}
	checkG2Flush(t, aff[:msmBatchSize], idx, aff[msmBatchSize:])
}

// TestG2FlushExtremeCoordinates drives the lane bounds at their ends: a
// full batch of chords whose coordinates are drawn from 0, 1, 2, p-1,
// (p-1)/2 and random values, on and off the twist — the chord formulas
// do not ask — held to refimpl's chord through both backends.
func TestG2FlushExtremeCoordinates(t *testing.T) {
	var pm1, half fp.Element
	pm1.SetOne()
	pm1.Neg(&pm1)
	half.SetBigInt(new(big.Int).Rsh(fp.Modulus(), 1))
	rng := rand.New(rand.NewSource(34))
	coord := func() fp.Element {
		switch rng.Intn(6) {
		case 0:
			return fp.Element{}
		case 1:
			return fp.NewElement(1)
		case 2:
			return fp.NewElement(2)
		case 3:
			return pm1
		case 4:
			return half
		}
		var e fp.Element
		e.SetBigInt(new(big.Int).Rand(rng, fp.Modulus()))
		return e
	}
	e2 := func() ext.E2 { return ext.E2{A0: coord(), A1: coord()} }
	for round := 0; round < 4; round++ {
		n := msmBatchSize
		buckets, pts, idx := make([]G2Affine, n), make([]G2Affine, n), make([]int32, n)
		for i, k := range rng.Perm(n) {
			idx[i] = int32(k)
		}
		for k := range n {
			b, p := G2Affine{e2(), e2()}, G2Affine{e2(), e2()}
			for b.IsInfinity() || p.IsInfinity() || b.X.Equal(&p.X) {
				b, p = G2Affine{e2(), e2()}, G2Affine{e2(), e2()}
			}
			buckets[idx[k]], pts[k] = b, p
		}
		checkG2Flush(t, buckets, idx, pts)
	}
}

// FuzzG2FlushBackends holds the G2 lane flush to the scalar flush and
// both to refimpl on byte-built batches (see buildFlushCase) of 1–40
// ops, so every tail length mod 8 and up to five lane blocks.
func FuzzG2FlushBackends(f *testing.F) {
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 24, 31, 33, 40} {
		for kind := range byte(8) {
			// kind on every third op, chords (kinds 0–3) around it
			pattern := make([]byte, 2+2*n)
			pattern[0] = byte(n - 1)
			for k := range n {
				pattern[1+2*k] = byte(k % 4)
				if k%3 == 2 {
					pattern[1+2*k] = kind
				}
				pattern[2+2*k] = byte(k*13) + kind
			}
			pattern[1+2*n] = byte(n) + kind
			f.Add(pattern)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%40
		buckets, idx, pts := g2FlushCase(t, n, data[1:])
		checkG2Flush(t, buckets, idx, pts)
	})
}

// TestG2JacAgainstRefimpl holds G2 Jacobian add, mixed add and double to
// refimpl on random points, equal points, negated points and infinity.
func TestG2JacAgainstRefimpl(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var inf G2Jac
	inf.SetInfinity()
	for i := 0; i < 20; i++ {
		p, q := randG2(rng), randG2(rng)
		var negP G2Jac
		negP.Neg(&p)
		for _, c := range [][2]G2Jac{{p, q}, {p, p}, {p, negP}, {p, inf}, {inf, q}, {inf, inf}} {
			a, b := c[0], c[1]
			want := oracleG2Jac(&a).Add(oracleG2Jac(&b))
			sum := a
			sum.AddAssign(&b)
			if !oracleG2Jac(&sum).Equal(want) {
				t.Fatalf("case %d: G2Jac.AddAssign differs from refimpl", i)
			}
			var bAff G2Affine
			bAff.FromJacobian(&b)
			mixed := a
			mixed.AddMixed(&bAff)
			if !oracleG2Jac(&mixed).Equal(want) {
				t.Fatalf("case %d: G2Jac.AddMixed differs from refimpl", i)
			}
			dbl := a
			dbl.DoubleAssign()
			if !oracleG2Jac(&dbl).Equal(oracleG2Jac(&a).Double()) {
				t.Fatalf("case %d: G2Jac.DoubleAssign differs from refimpl", i)
			}
		}
	}
}

// TestMultiExpG2AgainstRefimpl holds MultiExpG2 at n ≤ 64 — the
// small-MSM pass, and Pippenger with the batch-affine flush above its
// threshold — to refimpl's double-and-add sum Σ kᵢ·Pᵢ, with infinity
// and repeated points among the inputs.
func TestMultiExpG2AgainstRefimpl(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sizes := []int{1, 2, 3, 8, 17, msmSmallThreshold - 1, msmSmallThreshold, 64}
	if testing.Short() {
		sizes = []int{1, 3, msmSmallThreshold}
	}
	top := sizes[len(sizes)-1]
	points := make([]G2Affine, top)
	for i := range points {
		switch {
		case i%9 == 4: // infinity
		case i%7 == 6:
			points[i] = points[i-1]
		default:
			p := randG2(rng)
			points[i].FromJacobian(&p)
		}
	}
	scalars := smallPathScalars(rng, top)
	// want[n] = Σ_{i<n} kᵢ·Pᵢ, each term computed once.
	want := make([]refimpl.G2, top+1)
	want[0] = refimpl.G2Infinity()
	for i := range top {
		want[i+1] = want[i].Add(oracleG2(&points[i]).ScalarMul(scalars[i].BigInt(new(big.Int))))
	}
	for _, n := range sizes {
		got := MultiExpG2(points[:n], scalars[:n])
		if !oracleG2Jac(&got).Equal(want[n]) {
			t.Fatalf("n=%d: MultiExpG2 differs from refimpl's double-and-add sum", n)
		}
	}
	var zero fr.Element
	if got := MultiExpG2(points[:1], []fr.Element{zero}); !got.IsInfinity() {
		t.Fatal("0·P is not infinity")
	}
}
