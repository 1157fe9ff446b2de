package curve

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/lanes"
	"zkrownn/internal/bn254/refimpl"
)

// The differential gate for G1 against internal/bn254/refimpl's affine
// chord-and-tangent group over math/big: the batch-affine flush on both
// backends, Jacobian add and double, and small MSMs. Coordinates cross
// as raw Montgomery limbs with R and R⁻¹ applied in math/big, so the
// bridge does not lean on the fp.Mul under test.

var (
	montR    = refimpl.Fp.Reduce(new(big.Int).Lsh(big.NewInt(1), 256))
	montRInv = refimpl.Fp.Inverse(montR)
)

func oracleFp(z *fp.Element) *big.Int {
	var buf [fp.Bytes]byte
	for i := range z {
		binary.BigEndian.PutUint64(buf[fp.Bytes-8*(i+1):], z[i])
	}
	return refimpl.Fp.Mul(new(big.Int).SetBytes(buf[:]), montRInv)
}

func fromOracleFp(v *big.Int) (z fp.Element) {
	var buf [fp.Bytes]byte
	refimpl.Fp.Mul(v, montR).FillBytes(buf[:])
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[fp.Bytes-8*(i+1):])
	}
	return z
}

func oracleG1(p *G1Affine) refimpl.G1 {
	if p.IsInfinity() {
		return refimpl.G1Infinity()
	}
	return refimpl.NewG1(oracleFp(&p.X), oracleFp(&p.Y))
}

func fromOracleG1(p refimpl.G1) G1Affine {
	if p.Inf {
		return G1Affine{}
	}
	return G1Affine{fromOracleFp(p.X), fromOracleFp(p.Y)}
}

func oracleG1Jac(p *G1Jac) refimpl.G1 {
	var a G1Affine
	a.FromJacobian(p)
	return oracleG1(&a)
}

// flushBackends runs one flush on copies of buckets through the scalar
// formulas and, where the CPU has IFMA, through the lanes.
func flushBackends[A any](flush func([]A, []int32, []A), buckets []A, idx []int32, pts []A) (scalar, onLanes []A) {
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	run := func(gate bool) []A {
		lanes.SupportIFMA = gate
		out := append([]A(nil), buckets...)
		flush(out, idx, pts)
		return out
	}
	if lanes.SupportIFMA {
		onLanes = run(true)
	}
	return run(false), onLanes
}

// checkFlushOf holds both flush backends to the oracle's sums, op by
// op; want returns the oracle's bucket + point.
func checkFlushOf[A comparable](t *testing.T, flush func([]A, []int32, []A), want func(b, p *A) A, buckets []A, idx []int32, pts []A) {
	t.Helper()
	scalar, lanes := flushBackends(flush, buckets, idx, pts)
	for k := range idx {
		b := idx[k]
		w := want(&buckets[b], &pts[k])
		if scalar[b] != w {
			t.Fatalf("op %d of %d: scalar flush differs from refimpl", k, len(idx))
		}
		if lanes != nil && lanes[b] != w {
			t.Fatalf("op %d of %d: lane flush differs from refimpl", k, len(idx))
		}
	}
}

// checkFlush holds both G1 flush backends to refimpl's sums.
func checkFlush(t *testing.T, buckets []G1Affine, idx []int32, pts []G1Affine) {
	t.Helper()
	checkFlushOf(t, newG1BatchAdder(len(idx)).flush,
		func(b, p *G1Affine) G1Affine { return fromOracleG1(oracleG1(b).Add(oracleG1(p))) },
		buckets, idx, pts)
}

// buildFlushCase builds a batch of n ops on n buckets from a byte
// pattern, two bytes an op (kind, selector) and one more that rotates
// the bucket order. The buckets and points come from multiples, a table
// of 128 generator multiples — the buckets from its top half, the points
// from its bottom half, so a plain op is a chord — and the kinds inject
// infinity buckets, tangents (point = bucket), cancellations (point =
// -bucket) and the specials, curve points with extreme coordinates.
func buildFlushCase[A any](n int, pattern []byte, multiples, specials []A, neg func(dst, src *A)) (buckets []A, idx []int32, pts []A) {
	byteAt := func(i int) byte {
		if i < len(pattern) {
			return pattern[i]
		}
		return byte(i * 37)
	}
	buckets, pts, idx = make([]A, n), make([]A, n), make([]int32, n)
	rot := int(byteAt(2 * n))
	for k := range n {
		kind, sel := byteAt(2*k), int(byteAt(2*k+1))
		idx[k] = int32((n - 1 - k + rot) % n) // distinct, as the scheduler guarantees
		bucket, pt := multiples[64+(sel*31+k)%64], multiples[sel%64]
		switch kind % 8 {
		case 4:
			pt = bucket
		case 5:
			neg(&pt, &bucket)
		case 6:
			var inf A
			bucket = inf
		case 7:
			pt = specials[sel%len(specials)]
		}
		buckets[idx[k]], pts[k] = bucket, pt
	}
	return buckets, idx, pts
}

// flushCase is buildFlushCase in G1, whose specials are the points with
// x ∈ {0, 1, p-1}.
func flushCase(n int, pattern []byte) (buckets []G1Affine, idx []int32, pts []G1Affine) {
	return buildFlushCase(n, pattern, flushMultiples, flushSpecials, func(dst, src *G1Affine) { dst.Neg(src) })
}

// flushMultiples holds k·G for k = 1..128; flushSpecials the points with
// x ∈ {0, 1, p-1} (both signs of y) that lie on the curve.
var flushMultiples, flushSpecials = func() ([]G1Affine, []G1Affine) {
	jacs := make([]G1Jac, 128)
	g := G1Generator()
	jacs[0] = g
	for i := 1; i < len(jacs); i++ {
		jacs[i] = jacs[i-1]
		jacs[i].AddAssign(&g)
	}
	var specials []G1Affine
	var pm1 fp.Element
	pm1.SetOne()
	pm1.Neg(&pm1)
	for _, x := range []fp.Element{{}, fp.NewElement(1), pm1} {
		var rhs, y fp.Element
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &curveBfp)
		if y.Sqrt(&rhs) == nil {
			continue
		}
		p := G1Affine{x, y}
		specials = append(specials, p)
		p.Y.Neg(&p.Y)
		specials = append(specials, p)
	}
	return BatchJacToAffineG1(jacs), specials
}()

// TestG1FlushAgainstRefimpl holds both flush backends to refimpl on
// random batches of every length up to a few lane blocks, and on the
// full chord batch of an MSM. Without IFMA the lane half is skipped
// with its reason logged; the scalar half runs everywhere.
func TestG1FlushAgainstRefimpl(t *testing.T) {
	t.Logf("G1 flush backend: %s", Backend())
	if !lanes.SupportIFMA {
		t.Log("no AVX-512 IFMA on this CPU: lane assertions skipped, scalar flush checked")
	}
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 5*lanes.Width+3; n++ {
		pattern := make([]byte, 2*n)
		rng.Read(pattern)
		buckets, idx, pts := flushCase(n, pattern)
		checkFlush(t, buckets, idx, pts)
	}
	jacs := make([]G1Jac, 2*msmBatchSize)
	for i := range jacs {
		jacs[i] = randG1(rng)
	}
	aff := BatchJacToAffineG1(jacs)
	idx := make([]int32, msmBatchSize)
	for i, k := range rng.Perm(msmBatchSize) {
		idx[i] = int32(k)
	}
	checkFlush(t, aff[:msmBatchSize], idx, aff[msmBatchSize:])
}

// FuzzG1FlushBackends holds the lane flush to the scalar flush and both
// to refimpl on byte-built batches (see flushCase) of 1–40 ops, so every
// tail length mod 8 and up to five lane blocks.
func FuzzG1FlushBackends(f *testing.F) {
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
		buckets, idx, pts := flushCase(n, data[1:])
		checkFlush(t, buckets, idx, pts)
	})
}

// TestG1JacAgainstRefimpl holds Jacobian add, mixed add and double to
// refimpl on random points, equal points, negated points and infinity.
func TestG1JacAgainstRefimpl(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var inf G1Jac
	inf.SetInfinity()
	for i := 0; i < 40; i++ {
		p, q := randG1(rng), randG1(rng)
		var negP G1Jac
		negP.Neg(&p)
		for _, c := range [][2]G1Jac{{p, q}, {p, p}, {p, negP}, {p, inf}, {inf, q}, {inf, inf}} {
			a, b := c[0], c[1]
			want := oracleG1Jac(&a).Add(oracleG1Jac(&b))
			sum := a
			sum.AddAssign(&b)
			if !oracleG1Jac(&sum).Equal(want) {
				t.Fatalf("case %d: G1Jac.AddAssign differs from refimpl", i)
			}
			var bAff G1Affine
			bAff.FromJacobian(&b)
			mixed := a
			mixed.AddMixed(&bAff)
			if !oracleG1Jac(&mixed).Equal(want) {
				t.Fatalf("case %d: G1Jac.AddMixed differs from refimpl", i)
			}
			dbl := a
			dbl.DoubleAssign()
			if !oracleG1Jac(&dbl).Equal(oracleG1Jac(&a).Double()) {
				t.Fatalf("case %d: G1Jac.DoubleAssign differs from refimpl", i)
			}
		}
	}
}

// TestMultiExpG1AgainstRefimpl holds MultiExpG1 at n ≤ 64 — the
// small-MSM pass, and Pippenger with the batch-affine flush above its
// threshold — to refimpl's double-and-add sum Σ kᵢ·Pᵢ, with infinity
// and repeated points among the inputs.
func TestMultiExpG1AgainstRefimpl(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{1, 2, 3, 8, 17, msmSmallThreshold - 1, msmSmallThreshold, 64}
	if testing.Short() {
		sizes = []int{1, 3, msmSmallThreshold}
	}
	top := sizes[len(sizes)-1]
	points := make([]G1Affine, top)
	for i := range points {
		switch {
		case i%9 == 4: // infinity
		case i%7 == 6:
			points[i] = points[i-1]
		default:
			p := randG1(rng)
			points[i].FromJacobian(&p)
		}
	}
	scalars := smallPathScalars(rng, top)
	for _, n := range sizes {
		want := refimpl.G1Infinity()
		for i := range n {
			want = want.Add(oracleG1(&points[i]).ScalarMul(scalars[i].BigInt(new(big.Int))))
		}
		got := MultiExpG1(points[:n], scalars[:n])
		if !oracleG1Jac(&got).Equal(want) {
			t.Fatalf("n=%d: MultiExpG1 differs from refimpl's double-and-add sum", n)
		}
	}
	var zero fr.Element
	if got := MultiExpG1(points[:1], []fr.Element{zero}); !got.IsInfinity() {
		t.Fatal("0·P is not infinity")
	}
}
