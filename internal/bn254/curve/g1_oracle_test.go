package curve

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
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
func flushBackends(buckets []G1Affine, idx []int32, pts []G1Affine) (scalar, lanes []G1Affine) {
	defer func(v bool) { supportIFMA = v }(supportIFMA)
	run := func(gate bool) []G1Affine {
		supportIFMA = gate
		out := append([]G1Affine(nil), buckets...)
		newG1BatchAdder(len(idx)).flush(out, idx, pts)
		return out
	}
	if supportIFMA {
		lanes = run(true)
	}
	return run(false), lanes
}

// checkFlush holds both flush backends to refimpl's sums, op by op.
func checkFlush(t *testing.T, buckets []G1Affine, idx []int32, pts []G1Affine) {
	t.Helper()
	scalar, lanes := flushBackends(buckets, idx, pts)
	for k := range idx {
		b := idx[k]
		want := fromOracleG1(oracleG1(&buckets[b]).Add(oracleG1(&pts[k])))
		if scalar[b] != want {
			t.Fatalf("op %d of %d: scalar flush differs from refimpl", k, len(idx))
		}
		if lanes != nil && lanes[b] != want {
			t.Fatalf("op %d of %d: lane flush differs from refimpl", k, len(idx))
		}
	}
}

// flushCase builds a batch of n ops on n buckets from a byte pattern,
// two bytes an op (kind, selector) and one more that rotates the bucket
// order. The buckets and points are multiples of the generator — the
// buckets from one table, the points from another, so a plain op is a
// chord — and the kinds inject infinity buckets, tangents (point =
// bucket), cancellations (point = -bucket) and the curve points with
// x ∈ {0, 1, p-1} where they exist.
func flushCase(n int, pattern []byte) (buckets []G1Affine, idx []int32, pts []G1Affine) {
	byteAt := func(i int) byte {
		if i < len(pattern) {
			return pattern[i]
		}
		return byte(i * 37)
	}
	buckets, pts, idx = make([]G1Affine, n), make([]G1Affine, n), make([]int32, n)
	rot := int(byteAt(2 * n))
	for k := range n {
		kind, sel := byteAt(2*k), int(byteAt(2*k+1))
		idx[k] = int32((n - 1 - k + rot) % n) // distinct, as the scheduler guarantees
		bucket, pt := flushMultiples[64+(sel*31+k)%64], flushMultiples[sel%64]
		switch kind % 8 {
		case 4:
			pt = bucket
		case 5:
			pt.Neg(&bucket)
		case 6:
			bucket = G1Affine{}
		case 7:
			pt = flushSpecials[sel%len(flushSpecials)]
		}
		buckets[idx[k]], pts[k] = bucket, pt
	}
	return buckets, idx, pts
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
	if !supportIFMA {
		t.Log("no AVX-512 IFMA on this CPU: lane assertions skipped, scalar flush checked")
	}
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 5*laneWidth+3; n++ {
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
// small-MSM pass, and the Jacobian-bucket Pippenger above its
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
