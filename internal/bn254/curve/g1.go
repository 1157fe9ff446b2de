// Package curve implements the BN254 (alt_bn128) elliptic-curve groups
// G1 (over F_p) and G2 (over F_p², on the D-type sextic twist), with
// Jacobian-coordinate arithmetic, scalar multiplication, fixed-base
// tables for trusted setup, and a parallel Pippenger multi-exponentiation
// used by the Groth16 prover.
//
// # G2 membership
//
// E(F_p) has prime order r, so every point on it is in G1. The twist has
// order r·(2p - r), and a decoded twist point is in G2 only if its order
// divides r. G2Affine.IsInSubgroup decides that without multiplying by
// the 254-bit r: with u = BNParamX and ψ the untwist-Frobenius-twist
// endomorphism, it accepts exactly when
//
//	[u+1]Q + ψ([u]Q) + ψ²([u]Q) = ψ³([2u]Q),
//
// one 63-bit double-and-add, three applications of ψ, three additions
// and a doubling. Write the condition as f(ψ)Q = ∞ for
// f(X) = (u+1) + uX + uX² - 2uX³. It is complete: ψ acts on G2 as
// multiplication by p, and f(p) ≡ 0 (mod r). It is sound: ψ satisfies
// χ(ψ) = ψ² - tψ + p = 0 on all of E'(F_p²), so a point killed by f(ψ) is
// killed by the integer Res(f, χ) — an integer combination of f and χ —
// and, like every point, by the group order; gcd(Res(f, χ), r·(2p - r))
// is r, and r does not divide 2p - r, so the point is an r-torsion point
// of E'(F_p²), and those are G2. Both integer facts are recomputed from
// u alone, together with p, r, t and the twist's order, by
// TestG2MembershipCertificate (membership_test.go), and the criterion is
// held to [r]Q = ∞ (reference_test.go) on subgroup points, raw twist
// points, points of the cofactor's two small prime orders and their sums
// with subgroup points by TestG2MembershipMatchesReference.
package curve

import (
	"errors"
	"math/big"

	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/lanes"
)

// CurveB is the constant term of E: y² = x³ + 3.
const CurveB = 3

// G1Affine is a point on E(F_p) in affine coordinates. The point at
// infinity is encoded as (0, 0).
type G1Affine struct {
	X, Y fp.Element
}

// G1Jac is a point in Jacobian coordinates (x = X/Z², y = Y/Z³); the
// point at infinity has Z = 0.
type G1Jac struct {
	X, Y, Z fp.Element
}

var (
	g1Gen     G1Jac
	g1GenAff  G1Affine
	curveBfp  fp.Element
	rModulus  big.Int // group order, shared by G1 and G2
	rBitLen   int
	fpModulus = fp.Modulus()
)

func init() {
	rModulus.SetString(fr.ModulusStr, 10)
	rBitLen = rModulus.BitLen()
	curveBfp.SetUint64(CurveB)

	// Standard generator (1, 2).
	g1GenAff.X.SetUint64(1)
	g1GenAff.Y.SetUint64(2)
	if !g1GenAff.IsOnCurve() {
		panic("curve: (1,2) not on E(F_p)")
	}
	g1Gen.FromAffine(&g1GenAff)
	_ = fpModulus
}

// G1Generator returns the canonical generator of G1 in Jacobian form.
func G1Generator() G1Jac { return g1Gen }

// G1GeneratorAffine returns the canonical generator in affine form.
func G1GeneratorAffine() G1Affine { return g1GenAff }

// GroupOrder returns the order r of G1 and G2 as a fresh big.Int.
func GroupOrder() *big.Int { return new(big.Int).Set(&rModulus) }

// IsInfinity reports whether p is the point at infinity.
func (p *G1Affine) IsInfinity() bool { return p.X.IsZero() && p.Y.IsZero() }

// Set copies q into p and returns p.
func (p *G1Affine) Set(q *G1Affine) *G1Affine { *p = *q; return p }

// Equal reports whether p == q.
func (p *G1Affine) Equal(q *G1Affine) bool {
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Neg sets p = -q and returns p.
func (p *G1Affine) Neg(q *G1Affine) *G1Affine {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	return p
}

// IsOnCurve reports whether p satisfies y² = x³ + 3 (infinity counts as
// on-curve).
func (p *G1Affine) IsOnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	var lhs, rhs fp.Element
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &curveBfp)
	return lhs.Equal(&rhs)
}

// IsInSubgroup reports whether p lies in the order-r subgroup. For BN
// curves #E(F_p) = r, so this is equivalent to being on the curve; the
// scalar check is kept for defence in depth on deserialized data.
func (p *G1Affine) IsInSubgroup() bool {
	if !p.IsOnCurve() {
		return false
	}
	var j G1Jac
	j.FromAffine(p)
	j.ScalarMulBig(&j, &rModulus)
	return j.IsInfinity()
}

// FromJacobian sets p to the affine form of q and returns p.
func (p *G1Affine) FromJacobian(q *G1Jac) *G1Affine {
	if q.IsInfinity() {
		p.X.SetZero()
		p.Y.SetZero()
		return p
	}
	var zInv, zInv2, zInv3 fp.Element
	zInv.Inverse(&q.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.X.Mul(&q.X, &zInv2)
	p.Y.Mul(&q.Y, &zInv3)
	return p
}

// IsInfinity reports whether p is the point at infinity (Z == 0).
func (p *G1Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity sets p to the point at infinity and returns p.
func (p *G1Jac) SetInfinity() *G1Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// Set copies q into p and returns p.
func (p *G1Jac) Set(q *G1Jac) *G1Jac { *p = *q; return p }

// FromAffine sets p to the Jacobian form of q and returns p.
func (p *G1Jac) FromAffine(q *G1Affine) *G1Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	p.X.Set(&q.X)
	p.Y.Set(&q.Y)
	p.Z.SetOne()
	return p
}

// Equal reports whether p and q represent the same point.
func (p *G1Jac) Equal(q *G1Jac) bool {
	if p.IsInfinity() {
		return q.IsInfinity()
	}
	if q.IsInfinity() {
		return false
	}
	// Cross-multiply to compare without inversions:
	// X1/Z1² == X2/Z2² and Y1/Z1³ == Y2/Z2³.
	var z1z1, z2z2, u1, u2, s1, s2, t fp.Element
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	t.Mul(&z2z2, &q.Z)
	s1.Mul(&p.Y, &t)
	t.Mul(&z1z1, &p.Z)
	s2.Mul(&q.Y, &t)
	return u1.Equal(&u2) && s1.Equal(&s2)
}

// Neg sets p = -q and returns p.
func (p *G1Jac) Neg(q *G1Jac) *G1Jac {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	p.Z.Set(&q.Z)
	return p
}

// DoubleAssign doubles p in place using the a = 0 doubling formulas
// (dbl-2009-l) and returns p.
func (p *G1Jac) DoubleAssign() *G1Jac {
	if p.IsInfinity() {
		return p
	}
	var a, b, c, d, e, f, t fp.Element
	a.Square(&p.X)      // A = X²
	b.Square(&p.Y)      // B = Y²
	c.Square(&b)        // C = B²
	d.Add(&p.X, &b)     // (X+B)²
	d.Square(&d)        //
	d.Sub(&d, &a)       // -A
	d.Sub(&d, &c)       // -C
	d.Double(&d)        // D = 2((X+B)²-A-C)
	e.Double(&a)        //
	e.Add(&e, &a)       // E = 3A
	f.Square(&e)        // F = E²
	t.Double(&d)        //
	p.Z.Mul(&p.Y, &p.Z) //
	p.Z.Double(&p.Z)    // Z3 = 2YZ
	p.X.Sub(&f, &t)     // X3 = F - 2D
	t.Sub(&d, &p.X)     //
	t.Mul(&e, &t)       //
	var c8 fp.Element   //
	c8.Double(&c)       //
	c8.Double(&c8)      //
	c8.Double(&c8)      // 8C
	p.Y.Sub(&t, &c8)    // Y3 = E(D-X3) - 8C
	return p
}

// Double sets p = 2q and returns p.
func (p *G1Jac) Double(q *G1Jac) *G1Jac {
	p.Set(q)
	return p.DoubleAssign()
}

// AddAssign sets p = p + q (general Jacobian addition, add-2007-bl with
// doubling fallback) and returns p.
func (p *G1Jac) AddAssign(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2 fp.Element
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	var t fp.Element
	t.Mul(&q.Z, &z2z2)
	s1.Mul(&p.Y, &t)
	t.Mul(&p.Z, &z1z1)
	s2.Mul(&q.Y, &t)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			return p.DoubleAssign()
		}
		return p.SetInfinity() // p == -q
	}

	var h, i, j, r, v fp.Element
	h.Sub(&u2, &u1) // H = U2-U1
	i.Double(&h)    //
	i.Square(&i)    // I = (2H)²
	j.Mul(&h, &i)   // J = H·I
	r.Sub(&s2, &s1) //
	r.Double(&r)    // R = 2(S2-S1)
	v.Mul(&u1, &i)  // V = U1·I

	var x3, y3, z3 fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &j)
	var twoV fp.Element
	twoV.Double(&v)
	x3.Sub(&x3, &twoV) // X3 = R² - J - 2V

	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	var s1j fp.Element
	s1j.Mul(&s1, &j)
	s1j.Double(&s1j)
	y3.Sub(&y3, &s1j) // Y3 = R(V-X3) - 2 S1 J

	z3.Add(&p.Z, &q.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h) // Z3 = ((Z1+Z2)² - Z1Z1 - Z2Z2)·H

	p.X.Set(&x3)
	p.Y.Set(&y3)
	p.Z.Set(&z3)
	return p
}

// AddMixed sets p = p + q for an affine q (madd-2007-bl) and returns p.
func (p *G1Jac) AddMixed(q *G1Affine) *G1Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(q)
	}
	var z1z1, u2, s2 fp.Element
	z1z1.Square(&p.Z)
	u2.Mul(&q.X, &z1z1)
	s2.Mul(&z1z1, &p.Z)
	s2.Mul(&s2, &q.Y)

	if u2.Equal(&p.X) {
		if s2.Equal(&p.Y) {
			return p.DoubleAssign()
		}
		return p.SetInfinity()
	}

	var h, hh, i, j, r, v fp.Element
	h.Sub(&u2, &p.X) // H = U2-X1
	hh.Square(&h)    // HH = H²
	i.Double(&hh)
	i.Double(&i)  // I = 4HH
	j.Mul(&h, &i) // J = H·I
	r.Sub(&s2, &p.Y)
	r.Double(&r)    // R = 2(S2-Y1)
	v.Mul(&p.X, &i) // V = X1·I

	var x3, y3, z3 fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &j)
	var twoV fp.Element
	twoV.Double(&v)
	x3.Sub(&x3, &twoV)

	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	var yj fp.Element
	yj.Mul(&p.Y, &j)
	yj.Double(&yj)
	y3.Sub(&y3, &yj)

	z3.Add(&p.Z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	p.X.Set(&x3)
	p.Y.Set(&y3)
	p.Z.Set(&z3)
	return p
}

// SubAssign sets p = p - q and returns p.
func (p *G1Jac) SubAssign(q *G1Jac) *G1Jac {
	var nq G1Jac
	nq.Neg(q)
	return p.AddAssign(&nq)
}

// ScalarMulBig sets p = k·q for a big.Int scalar (double-and-add, MSB
// first) and returns p. Negative scalars negate the point.
func (p *G1Jac) ScalarMulBig(q *G1Jac, k *big.Int) *G1Jac {
	return scalarMulBig[G1Affine](p, q, k)
}

// ScalarMul sets p = k·q for a scalar-field element k and returns p
// (width-4 NAF; see group.go).
func (p *G1Jac) ScalarMul(q *G1Jac, k *fr.Element) *G1Jac {
	return scalarMul[G1Affine](p, q, k)
}

// BatchJacToAffineG1 converts a slice of Jacobian points to affine with a
// single field inversion (Montgomery's trick).
func BatchJacToAffineG1(points []G1Jac) []G1Affine {
	res := make([]G1Affine, len(points))
	zs := make([]fp.Element, len(points))
	for i := range points {
		zs[i] = points[i].Z
	}
	zInvs := fp.BatchInvert(zs)
	for i := range points {
		if points[i].IsInfinity() {
			res[i].X.SetZero()
			res[i].Y.SetZero()
			continue
		}
		var zInv2, zInv3 fp.Element
		zInv2.Square(&zInvs[i])
		zInv3.Mul(&zInv2, &zInvs[i])
		res[i].X.Mul(&points[i].X, &zInv2)
		res[i].Y.Mul(&points[i].Y, &zInv3)
	}
	return res
}

// g1BatchAdder applies batches of independent affine additions
// buckets[idx[k]] += pts[k] with one shared field inversion (Montgomery's
// trick over the chord/tangent denominators). It is the G1 leaf of the
// MSM's batch-affine bucket accumulation: an amortized affine add costs
// ~6 field muls against ~15 for a Jacobian mixed add. The scratch slices
// persist across flushes so the hot loop never allocates.
type g1BatchAdder struct {
	den, inv []fp.Element // lanes.Width longer than a batch: the lane totals ride at the end
	// Positions in the flush of its tangent ops, its chord ops, and the
	// ops that take the scalar formulas (tangents, then the chords the
	// lanes leave).
	tangents, chords, scalar []int32
	lanes                    g1Lanes
}

func newG1BatchAdder(batchSize int) *g1BatchAdder {
	return &g1BatchAdder{
		den:      make([]fp.Element, batchSize+lanes.Width),
		inv:      make([]fp.Element, batchSize+lanes.Width),
		tangents: make([]int32, 0, batchSize),
		chords:   make([]int32, 0, batchSize),
		scalar:   make([]int32, 0, batchSize),
	}
}

// flush performs buckets[idx[k]] += pts[k] for all k. Indices must be
// distinct within one call — the scheduler guarantees it — so the adds
// are independent and the denominators can be inverted together.
//
// A pre-pass settles the infinity cases (an empty bucket takes the
// point, a point meeting its negation empties the bucket) and sorts
// the rest into tangents (den = 2y) and chords (den = x₂ − x₁). With
// lanes.SupportIFMA the chords go to the lane kernel in blocks of eight
// (g1_lanes.go), whose eight per-lane denominator products join the
// scalar ops' denominators in the one inversion; the tangents and the
// chords past the last full block take the scalar formulas below,
// which without IFMA take every op.
func (a *g1BatchAdder) flush(buckets []G1Affine, idx []int32, pts []G1Affine) {
	tangents, chords := a.tangents[:0], a.chords[:0]
	for k := range idx {
		b := &buckets[idx[k]]
		p := &pts[k]
		switch {
		case b.IsInfinity():
			*b = *p
		case b.X.Equal(&p.X):
			if b.Y.Equal(&p.Y) {
				// Doubling: den = 2y is never zero — the subgroup has odd
				// order, so no 2-torsion.
				tangents = append(tangents, int32(k))
			} else {
				// p = -bucket: the sum is infinity.
				b.X.SetZero()
				b.Y.SetZero()
			}
		default:
			chords = append(chords, int32(k))
		}
	}
	nl := 0 // chords on the lanes
	if lanes.SupportIFMA {
		nl = len(chords) &^ (lanes.Width - 1)
	}
	scalar := append(append(a.scalar[:0], tangents...), chords[nl:]...)
	m := len(scalar)
	den, inv := a.den[:m+lanes.Width], a.inv[:m+lanes.Width]
	for i, k := range scalar {
		b, p := &buckets[idx[k]], &pts[k]
		if i < len(tangents) {
			den[i].Double(&b.Y)
		} else {
			den[i].Sub(&p.X, &b.X)
		}
	}
	if nl > 0 {
		a.lanes.prefixPass(buckets, idx, pts, chords[:nl], den[m:m+lanes.Width])
		fp.BatchInvertInto(den, inv)
		a.lanes.finishPass(buckets, pts, chords[:nl], inv[m:])
	} else {
		fp.BatchInvertInto(den[:m], inv[:m])
	}
	for i, k := range scalar {
		b := &buckets[idx[k]]
		p := &pts[k]
		var lambda, x3, y3 fp.Element
		if i < len(tangents) {
			// λ = 3x² / 2y
			lambda.Square(&b.X)
			var t fp.Element
			t.Double(&lambda)
			lambda.Add(&lambda, &t)
			lambda.Mul(&lambda, &inv[i])
		} else {
			// λ = (y2 - y1) / (x2 - x1)
			lambda.Sub(&p.Y, &b.Y)
			lambda.Mul(&lambda, &inv[i])
		}
		x3.Square(&lambda)
		x3.Sub(&x3, &b.X)
		x3.Sub(&x3, &p.X)
		y3.Sub(&b.X, &x3)
		y3.Mul(&y3, &lambda)
		y3.Sub(&y3, &b.Y)
		b.X.Set(&x3)
		b.Y.Set(&y3)
	}
}

// Compression flags live in the top two bits of the first byte of the
// big-endian X encoding, which are guaranteed free because p < 2²⁵⁴.
// 0b10 = compressed with lexicographically smaller y, 0b11 = compressed
// with larger y, 0b01 = point at infinity, 0b00 = invalid.
const (
	flagCompressedSmall = 0x80
	flagCompressedLarge = 0xC0
	flagInfinity        = 0x40
	maskFlags           = 0xC0
)

// G1CompressedSize is the byte length of a compressed G1 point.
const G1CompressedSize = fp.Bytes

// onlyFlags reports whether a compressed encoding carries nothing but its
// flag bits — the one spelling of ∞ that Bytes writes. Decoders refuse
// any other, so every accepted encoding is the canonical one.
func onlyFlags(buf []byte) bool {
	if buf[0]&^maskFlags != 0 {
		return false
	}
	for _, b := range buf[1:] {
		if b != 0 {
			return false
		}
	}
	return true
}

// Bytes returns the 32-byte compressed encoding of p: big-endian X with
// flag bits (compressed, y-sign, infinity) in the top byte. Valid because
// p < 2²⁵⁴ leaves the two (three) top bits clear.
func (p *G1Affine) Bytes() [G1CompressedSize]byte {
	var out [G1CompressedSize]byte
	if p.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	xb := p.X.Bytes()
	copy(out[:], xb[:])
	if p.Y.LexicographicallyLargest() {
		out[0] |= flagCompressedLarge
	} else {
		out[0] |= flagCompressedSmall
	}
	return out
}

// G1UncompressedSize is the byte length of an uncompressed G1 point
// (X then Y, each as its little-endian Montgomery limbs).
const G1UncompressedSize = 2 * fp.Bytes

// BytesRaw returns the 64-byte uncompressed encoding of p: X||Y, each
// coordinate its four Montgomery limbs, little-endian — the form the
// prover computes in, so neither direction converts. The point at
// infinity is all zeros. Decoding skips the square root that compressed
// decoding pays and every field product, so this is the format of
// locally trusted bulk material (the prover engine's on-disk key cache).
func (p *G1Affine) BytesRaw() [G1UncompressedSize]byte {
	var out [G1UncompressedSize]byte
	xb, yb := p.X.MontBytes(), p.Y.MontBytes()
	copy(out[:fp.Bytes], xb[:])
	copy(out[fp.Bytes:], yb[:])
	return out
}

// SetBytesRaw decodes an uncompressed G1 point, rejecting a coordinate
// not below p and verifying curve membership (which implies subgroup
// membership: BN254's G1 has cofactor 1).
func (p *G1Affine) SetBytesRaw(buf []byte) error {
	if len(buf) != G1UncompressedSize {
		return errors.New("curve: bad uncompressed G1 encoding length")
	}
	if err := p.X.SetMontBytes(buf[:fp.Bytes]); err != nil {
		return err
	}
	if err := p.Y.SetMontBytes(buf[fp.Bytes:]); err != nil {
		return err
	}
	if p.IsInfinity() {
		return nil
	}
	if !p.IsOnCurve() {
		return errors.New("curve: uncompressed G1 point not on curve")
	}
	return nil
}

// SetBytes decodes a compressed G1 point, verifying curve membership.
func (p *G1Affine) SetBytes(buf []byte) error {
	if len(buf) != G1CompressedSize {
		return errors.New("curve: bad G1 encoding length")
	}
	flags := buf[0] & maskFlags
	if flags == flagInfinity {
		if !onlyFlags(buf) {
			return errors.New("curve: G1 infinity encoding with nonzero payload")
		}
		p.X.SetZero()
		p.Y.SetZero()
		return nil
	}
	if flags != flagCompressedSmall && flags != flagCompressedLarge {
		return errors.New("curve: invalid G1 encoding flags")
	}
	var xb [G1CompressedSize]byte
	copy(xb[:], buf)
	xb[0] &^= maskFlags
	if err := p.X.SetBytesCanonical(xb[:]); err != nil {
		return err
	}
	// y² = x³ + 3
	var rhs fp.Element
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &curveBfp)
	if p.Y.Sqrt(&rhs) == nil {
		return errors.New("curve: G1 x-coordinate not on curve")
	}
	wantLargest := flags == flagCompressedLarge
	if p.Y.LexicographicallyLargest() != wantLargest {
		p.Y.Neg(&p.Y)
	}
	return nil
}
