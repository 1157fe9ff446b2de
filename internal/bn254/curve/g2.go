package curve

import (
	"errors"
	"math/big"
	"math/bits"

	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/lanes"
)

// G2Affine is a point on the sextic twist E'(F_p²): y² = x³ + 3/ξ.
// The point at infinity is encoded as (0, 0).
type G2Affine struct {
	X, Y ext.E2
}

// G2Jac is a twist point in Jacobian coordinates; infinity has Z = 0.
type G2Jac struct {
	X, Y, Z ext.E2
}

var (
	twistB     ext.E2 // 3/ξ
	g2Gen      G2Jac
	g2GenAff   G2Affine
	g2Cofactor big.Int // 2p - r
)

func init() {
	// b' = 3/ξ.
	xi := ext.Xi()
	var xiInv ext.E2
	xiInv.Inverse(&xi)
	var three ext.E2
	three.SetUint64(3)
	twistB.Mul(&three, &xiInv)

	// Cofactor h₂ = 2p - r; #E'(F_p²) = h₂·r for BN curves.
	g2Cofactor.Lsh(fp.Modulus(), 1)
	g2Cofactor.Sub(&g2Cofactor, GroupOrder())

	// Derive a generator deterministically: walk x = 1, 2, ... until
	// x³ + b' is a square, then clear the cofactor and verify the order.
	found := false
	for xTry := uint64(1); xTry < 64 && !found; xTry++ {
		var x, rhs, y ext.E2
		x.SetUint64(xTry)
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &twistB)
		if y.Sqrt(&rhs) == nil {
			continue
		}
		var cand G2Jac
		cand.X.Set(&x)
		cand.Y.Set(&y)
		cand.Z.SetOne()
		cand.ScalarMulBig(&cand, &g2Cofactor)
		if cand.IsInfinity() {
			continue
		}
		g2Gen = cand
		g2GenAff.FromJacobian(&g2Gen)
		if !g2GenAff.IsInSubgroup() {
			panic("curve: cofactor-cleared G2 point does not have order r")
		}
		found = true
	}
	if !found {
		panic("curve: failed to derive G2 generator")
	}
}

// G2Generator returns the derived generator of G2 in Jacobian form.
func G2Generator() G2Jac { return g2Gen }

// G2GeneratorAffine returns the derived generator in affine form.
func G2GeneratorAffine() G2Affine { return g2GenAff }

// TwistB returns the twist curve constant b' = 3/ξ.
func TwistB() ext.E2 { return twistB }

// IsInfinity reports whether p is the point at infinity.
func (p *G2Affine) IsInfinity() bool { return p.X.IsZero() && p.Y.IsZero() }

// Set copies q into p and returns p.
func (p *G2Affine) Set(q *G2Affine) *G2Affine { *p = *q; return p }

// Equal reports whether p == q.
func (p *G2Affine) Equal(q *G2Affine) bool {
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Neg sets p = -q and returns p.
func (p *G2Affine) Neg(q *G2Affine) *G2Affine {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	return p
}

// IsOnCurve reports whether p satisfies the twist equation.
func (p *G2Affine) IsOnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	var lhs, rhs ext.E2
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &twistB)
	return lhs.Equal(&rhs)
}

// BNParamX is the BN parameter u: p = 36u⁴+36u³+24u²+6u+1,
// r = 36u⁴+36u³+18u²+6u+1, trace t = 6u²+1. It is the only curve
// constant the pairing's exponents and the G2 membership test are built
// from.
const BNParamX = 4965661367192848881

// psi applies the untwist-Frobenius-twist endomorphism ψ of the twist to
// the affine coordinates (x, y) in place: (x, y) → (conj(x)·γ₁₂,
// conj(y)·γ₁₃). On Jacobian coordinates conjugate Z as well. ψ acts on
// G2 as multiplication by p and satisfies ψ² - tψ + p = 0 on all of
// E'(F_p²).
func psi(x, y *ext.E2) {
	cx, cy := ext.G2FrobeniusCoeffX(), ext.G2FrobeniusCoeffY()
	x.Conjugate(x)
	x.Mul(x, &cx)
	y.Conjugate(y)
	y.Mul(y, &cy)
}

// psiSquare applies ψ² in place: (x, y) → (x·γ₂₂, y·γ₂₃); the
// p²-Frobenius is trivial on F_p², so there is no conjugation and a
// Jacobian Z is unchanged.
func psiSquare(x, y *ext.E2) {
	cx, cy := ext.G2FrobeniusSquareCoeffX(), ext.G2FrobeniusSquareCoeffY()
	x.Mul(x, &cx)
	y.Mul(y, &cy)
}

// Psi sets p = ψ(q) and returns p.
func (p *G2Affine) Psi(q *G2Affine) *G2Affine {
	*p = *q
	psi(&p.X, &p.Y)
	return p
}

// PsiSquare sets p = ψ²(q) and returns p.
func (p *G2Affine) PsiSquare(q *G2Affine) *G2Affine {
	*p = *q
	psiSquare(&p.X, &p.Y)
	return p
}

// IsInSubgroup reports whether p lies in the order-r subgroup of the
// twist (required for pairing inputs; the twist has cofactor h₂ > 1).
// The criterion is [u+1]P + ψ([u]P) + ψ²([u]P) = ψ³([2u]P) — one 63-bit
// scalar multiplication instead of [r]P = ∞; the package comment says
// why it is exact.
func (p *G2Affine) IsInSubgroup() bool {
	if !p.IsOnCurve() {
		return false
	}
	if p.IsInfinity() {
		return true
	}
	var a G2Jac // [u]P
	a.FromAffine(p)
	for i := bits.Len64(BNParamX) - 2; i >= 0; i-- {
		a.DoubleAssign()
		if BNParamX>>i&1 == 1 {
			a.AddMixed(p)
		}
	}
	psiA, psi2A := a, a
	psi(&psiA.X, &psiA.Y)
	psiA.Z.Conjugate(&psiA.Z)
	psiSquare(&psi2A.X, &psi2A.Y)

	lhs := a
	lhs.AddMixed(p)
	lhs.AddAssign(&psiA)
	lhs.AddAssign(&psi2A)

	rhs := psi2A // ψ³([2u]P) = ψ(2·ψ²([u]P))
	rhs.DoubleAssign()
	psi(&rhs.X, &rhs.Y)
	rhs.Z.Conjugate(&rhs.Z)
	return lhs.Equal(&rhs)
}

// FromJacobian sets p to the affine form of q and returns p.
func (p *G2Affine) FromJacobian(q *G2Jac) *G2Affine {
	if q.IsInfinity() {
		p.X.SetZero()
		p.Y.SetZero()
		return p
	}
	var zInv, zInv2, zInv3 ext.E2
	zInv.Inverse(&q.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.X.Mul(&q.X, &zInv2)
	p.Y.Mul(&q.Y, &zInv3)
	return p
}

// IsInfinity reports whether p is the point at infinity (Z == 0).
func (p *G2Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity sets p to the point at infinity and returns p.
func (p *G2Jac) SetInfinity() *G2Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// Set copies q into p and returns p.
func (p *G2Jac) Set(q *G2Jac) *G2Jac { *p = *q; return p }

// FromAffine sets p to the Jacobian form of q and returns p.
func (p *G2Jac) FromAffine(q *G2Affine) *G2Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	p.X.Set(&q.X)
	p.Y.Set(&q.Y)
	p.Z.SetOne()
	return p
}

// Equal reports whether p and q represent the same point.
func (p *G2Jac) Equal(q *G2Jac) bool {
	if p.IsInfinity() {
		return q.IsInfinity()
	}
	if q.IsInfinity() {
		return false
	}
	var z1z1, z2z2, u1, u2, s1, s2, t ext.E2
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
func (p *G2Jac) Neg(q *G2Jac) *G2Jac {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	p.Z.Set(&q.Z)
	return p
}

// DoubleAssign doubles p in place (a = 0 twist) and returns p.
func (p *G2Jac) DoubleAssign() *G2Jac {
	if p.IsInfinity() {
		return p
	}
	var a, b, c, d, e, f, t ext.E2
	a.Square(&p.X)
	b.Square(&p.Y)
	c.Square(&b)
	d.Add(&p.X, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)
	t.Double(&d)
	p.Z.Mul(&p.Y, &p.Z)
	p.Z.Double(&p.Z)
	p.X.Sub(&f, &t)
	t.Sub(&d, &p.X)
	t.Mul(&e, &t)
	var c8 ext.E2
	c8.Double(&c)
	c8.Double(&c8)
	c8.Double(&c8)
	p.Y.Sub(&t, &c8)
	return p
}

// Double sets p = 2q and returns p.
func (p *G2Jac) Double(q *G2Jac) *G2Jac {
	p.Set(q)
	return p.DoubleAssign()
}

// AddAssign sets p = p + q and returns p.
func (p *G2Jac) AddAssign(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2 ext.E2
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	var t ext.E2
	t.Mul(&q.Z, &z2z2)
	s1.Mul(&p.Y, &t)
	t.Mul(&p.Z, &z1z1)
	s2.Mul(&q.Y, &t)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			return p.DoubleAssign()
		}
		return p.SetInfinity()
	}

	var h, i, j, r, v ext.E2
	h.Sub(&u2, &u1)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	r.Sub(&s2, &s1)
	r.Double(&r)
	v.Mul(&u1, &i)

	var x3, y3, z3 ext.E2
	x3.Square(&r)
	x3.Sub(&x3, &j)
	var twoV ext.E2
	twoV.Double(&v)
	x3.Sub(&x3, &twoV)

	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	var s1j ext.E2
	s1j.Mul(&s1, &j)
	s1j.Double(&s1j)
	y3.Sub(&y3, &s1j)

	z3.Add(&p.Z, &q.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	p.X.Set(&x3)
	p.Y.Set(&y3)
	p.Z.Set(&z3)
	return p
}

// AddMixed sets p = p + q for an affine q and returns p.
func (p *G2Jac) AddMixed(q *G2Affine) *G2Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(q)
	}
	var z1z1, u2, s2 ext.E2
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

	var h, hh, i, j, r, v ext.E2
	h.Sub(&u2, &p.X)
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)
	j.Mul(&h, &i)
	r.Sub(&s2, &p.Y)
	r.Double(&r)
	v.Mul(&p.X, &i)

	var x3, y3, z3 ext.E2
	x3.Square(&r)
	x3.Sub(&x3, &j)
	var twoV ext.E2
	twoV.Double(&v)
	x3.Sub(&x3, &twoV)

	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	var yj ext.E2
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

// ScalarMulBig sets p = k·q for a big.Int scalar (double-and-add, MSB
// first) and returns p. Negative scalars negate the point.
func (p *G2Jac) ScalarMulBig(q *G2Jac, k *big.Int) *G2Jac {
	return scalarMulBig[G2Affine](p, q, k)
}

// ScalarMul sets p = k·q for a scalar-field element k and returns p
// (width-4 NAF; see group.go).
func (p *G2Jac) ScalarMul(q *G2Jac, k *fr.Element) *G2Jac {
	return scalarMul[G2Affine](p, q, k)
}

// BatchJacToAffineG2 converts a slice of Jacobian twist points to affine
// with a single F_p² inversion.
func BatchJacToAffineG2(points []G2Jac) []G2Affine {
	res := make([]G2Affine, len(points))
	zs := make([]ext.E2, len(points))
	for i := range points {
		zs[i] = points[i].Z
	}
	zInvs := ext.BatchInvertE2(zs)
	for i := range points {
		if points[i].IsInfinity() {
			res[i].X.SetZero()
			res[i].Y.SetZero()
			continue
		}
		var zInv2, zInv3 ext.E2
		zInv2.Square(&zInvs[i])
		zInv3.Mul(&zInv2, &zInvs[i])
		res[i].X.Mul(&points[i].X, &zInv2)
		res[i].Y.Mul(&points[i].Y, &zInv3)
	}
	return res
}

// g2BatchAdder is the G2 leaf of the batch-affine bucket accumulation:
// g1BatchAdder's algebra over F_p² coordinates, sharing one F_p²
// inversion per flush via ext.BatchInvertE2Into, and with IFMA running
// its chord additions on lanes (g2_lanes.go).
type g2BatchAdder struct {
	den, inv []ext.E2 // lanes.Width longer than a batch: the lane totals ride at the end
	// Positions in the flush of its tangent ops, its chord ops, and the
	// ops that take the scalar formulas (tangents, then the chords the
	// lanes leave).
	tangents, chords, scalar []int32
	lanes                    g2Lanes
}

func newG2BatchAdder(batchSize int) *g2BatchAdder {
	return &g2BatchAdder{
		den:      make([]ext.E2, batchSize+lanes.Width),
		inv:      make([]ext.E2, batchSize+lanes.Width),
		tangents: make([]int32, 0, batchSize),
		chords:   make([]int32, 0, batchSize),
		scalar:   make([]int32, 0, batchSize),
	}
}

// flush performs buckets[idx[k]] += pts[k] for all k; indices are
// distinct within one call (scheduler invariant). It is
// g1BatchAdder.flush over F_p²: a pre-pass settles infinity and
// cancellation and sorts the rest into tangents and chords; with
// lanes.SupportIFMA the chords go to the lanes in blocks of eight, whose
// lane totals join the scalar ops' denominators in the one inversion.
func (a *g2BatchAdder) flush(buckets []G2Affine, idx []int32, pts []G2Affine) {
	tangents, chords := a.tangents[:0], a.chords[:0]
	for k := range idx {
		b := &buckets[idx[k]]
		p := &pts[k]
		switch {
		case b.IsInfinity():
			*b = *p
		case b.X.Equal(&p.X):
			if b.Y.Equal(&p.Y) {
				tangents = append(tangents, int32(k))
			} else {
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
		ext.BatchInvertE2Into(den, inv)
		a.lanes.finishPass(buckets, pts, chords[:nl], inv[m:])
	} else {
		ext.BatchInvertE2Into(den[:m], inv[:m])
	}
	for i, k := range scalar {
		b := &buckets[idx[k]]
		p := &pts[k]
		var lambda, x3, y3 ext.E2
		if i < len(tangents) {
			lambda.Square(&b.X)
			var t ext.E2
			t.Double(&lambda)
			lambda.Add(&lambda, &t)
			lambda.Mul(&lambda, &inv[i])
		} else {
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

// G2CompressedSize is the byte length of a compressed G2 point
// (X = (A0, A1) as two 32-byte field encodings, A1 first to carry the
// flag bits in its spare top bits).
const G2CompressedSize = 2 * fp.Bytes

// Bytes returns the 64-byte compressed encoding of p.
func (p *G2Affine) Bytes() [G2CompressedSize]byte {
	var out [G2CompressedSize]byte
	if p.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	a1 := p.X.A1.Bytes()
	a0 := p.X.A0.Bytes()
	copy(out[:fp.Bytes], a1[:])
	copy(out[fp.Bytes:], a0[:])
	if p.Y.LexicographicallyLargest() {
		out[0] |= flagCompressedLarge
	} else {
		out[0] |= flagCompressedSmall
	}
	return out
}

// G2UncompressedSize is the byte length of an uncompressed G2 point
// (X.A0, X.A1, Y.A0, Y.A1, each as its little-endian Montgomery limbs).
const G2UncompressedSize = 4 * fp.Bytes

// BytesRaw returns the 128-byte uncompressed encoding of p: the four
// F_p coordinates in memory order, each its Montgomery limbs
// little-endian, with the point at infinity as all zeros. Like the G1
// variant it exists for locally trusted bulk material: decoding skips
// the square root and every field product.
func (p *G2Affine) BytesRaw() [G2UncompressedSize]byte {
	var out [G2UncompressedSize]byte
	for i, c := range [4]*fp.Element{&p.X.A0, &p.X.A1, &p.Y.A0, &p.Y.A1} {
		b := c.MontBytes()
		copy(out[i*fp.Bytes:], b[:])
	}
	return out
}

// SetBytesRaw decodes an uncompressed G2 point, rejecting a coordinate
// not below p and verifying twist-curve membership only. G2 has a
// non-trivial cofactor, so unlike SetBytes this does NOT prove order-r
// subgroup membership — it is for material the caller already trusts
// (its own key cache), not for adversarial inputs.
func (p *G2Affine) SetBytesRaw(buf []byte) error {
	if len(buf) != G2UncompressedSize {
		return errors.New("curve: bad uncompressed G2 encoding length")
	}
	for i, c := range [4]*fp.Element{&p.X.A0, &p.X.A1, &p.Y.A0, &p.Y.A1} {
		if err := c.SetMontBytes(buf[i*fp.Bytes : (i+1)*fp.Bytes]); err != nil {
			return err
		}
	}
	if p.IsInfinity() {
		return nil
	}
	if !p.IsOnCurve() {
		return errors.New("curve: uncompressed G2 point not on twist")
	}
	return nil
}

// SetBytes decodes a compressed G2 point, verifying twist-curve and
// subgroup membership.
func (p *G2Affine) SetBytes(buf []byte) error {
	if len(buf) != G2CompressedSize {
		return errors.New("curve: bad G2 encoding length")
	}
	flags := buf[0] & maskFlags
	if flags == flagInfinity {
		if !onlyFlags(buf) {
			return errors.New("curve: G2 infinity encoding with nonzero payload")
		}
		p.X.SetZero()
		p.Y.SetZero()
		return nil
	}
	if flags != flagCompressedSmall && flags != flagCompressedLarge {
		return errors.New("curve: invalid G2 encoding flags")
	}
	var a1 [fp.Bytes]byte
	copy(a1[:], buf[:fp.Bytes])
	a1[0] &^= maskFlags
	if err := p.X.A1.SetBytesCanonical(a1[:]); err != nil {
		return err
	}
	if err := p.X.A0.SetBytesCanonical(buf[fp.Bytes:]); err != nil {
		return err
	}
	var rhs ext.E2
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &twistB)
	if p.Y.Sqrt(&rhs) == nil {
		return errors.New("curve: G2 x-coordinate not on twist")
	}
	wantLargest := flags == flagCompressedLarge
	if p.Y.LexicographicallyLargest() != wantLargest {
		p.Y.Neg(&p.Y)
	}
	if !p.IsInSubgroup() {
		return errors.New("curve: G2 point outside order-r subgroup")
	}
	return nil
}
