// Package ext implements the BN254 extension-field tower used by the
// optimal ate pairing:
//
//	F_p²  = F_p[u]  / (u² + 1)
//	F_p⁶  = F_p²[v] / (v³ - ξ),  ξ = 9 + u
//	F_p¹² = F_p⁶[w] / (w² - v)
//
// Frobenius coefficients are derived at package init from ξ and p rather
// than hard-coded, keeping the tower self-verifying.
package ext

import (
	"math/big"

	"zkrownn/internal/bn254/fp"
)

// E2 is an element a0 + a1·u of F_p² with u² = -1.
type E2 struct {
	A0, A1 fp.Element
}

// xiA0, xiA1 define the sextic non-residue ξ = 9 + u.
const (
	xiA0 = 9
	xiA1 = 1
)

// Xi returns the non-residue ξ = 9 + u used to define F_p⁶.
func Xi() E2 {
	var xi E2
	xi.A0.SetUint64(xiA0)
	xi.A1.SetUint64(xiA1)
	return xi
}

// SetZero sets z to 0 and returns z.
func (z *E2) SetZero() *E2 {
	z.A0.SetZero()
	z.A1.SetZero()
	return z
}

// SetOne sets z to 1 and returns z.
func (z *E2) SetOne() *E2 {
	z.A0.SetOne()
	z.A1.SetZero()
	return z
}

// Set copies x into z and returns z.
func (z *E2) Set(x *E2) *E2 { *z = *x; return z }

// SetUint64 sets z to the base-field value v.
func (z *E2) SetUint64(v uint64) *E2 {
	z.A0.SetUint64(v)
	z.A1.SetZero()
	return z
}

// IsZero reports whether z == 0.
func (z *E2) IsZero() bool { return z.A0.IsZero() && z.A1.IsZero() }

// IsOne reports whether z == 1.
func (z *E2) IsOne() bool { return z.A0.IsOne() && z.A1.IsZero() }

// Equal reports whether z == x.
func (z *E2) Equal(x *E2) bool { return z.A0.Equal(&x.A0) && z.A1.Equal(&x.A1) }

// String renders z as "a0+a1*u".
func (z *E2) String() string { return z.A0.String() + "+" + z.A1.String() + "*u" }

// Add sets z = x + y and returns z.
func (z *E2) Add(x, y *E2) *E2 { addP(z, x, y); return z }

// Sub sets z = x - y and returns z.
func (z *E2) Sub(x, y *E2) *E2 { subP(z, x, y); return z }

// Double sets z = 2x and returns z.
func (z *E2) Double(x *E2) *E2 { addP(z, x, x); return z }

// Neg sets z = -x and returns z.
func (z *E2) Neg(x *E2) *E2 {
	z.A0.Neg(&x.A0)
	z.A1.Neg(&x.A1)
	return z
}

// Conjugate sets z = a0 - a1·u and returns z.
func (z *E2) Conjugate(x *E2) *E2 {
	z.A0.Set(&x.A0)
	z.A1.Neg(&x.A1)
	return z
}

// Mul (z = x·y) and Square (z = x²) dispatch per build: on amd64 with
// ADX+BMI2 to the lazy-reduction kernels of e2_amd64.s, otherwise to the
// portable core below, which is also the reference the kernels are
// fuzzed against (FuzzE2MulBackends). Both return canonical limbs, so
// the two are bit-identical.

// mulGeneric sets z = x·y with the schoolbook/Karatsuba mix:
// (a0+a1u)(b0+b1u) = (a0b0 - a1b1) + ((a0+a1)(b0+b1) - a0b0 - a1b1)u.
// The adds and subs between the products are open-coded (e2_limbs.go).
func mulGeneric(z, x, y *E2) {
	var t0, t1, s0, s1 fp.Element
	t0.Mul(&x.A0, &y.A0)
	t1.Mul(&x.A1, &y.A1)
	s0 = addBackP(subModulus(limbAdd(&x.A0, &x.A1)))
	s1 = addBackP(subModulus(limbAdd(&y.A0, &y.A1)))
	s0.Mul(&s0, &s1)
	z.A0 = addBackP(limbSub(&t0, &t1))
	s0 = addBackP(limbSub(&s0, &t0))
	z.A1 = addBackP(limbSub(&s0, &t1))
}

// squareGeneric sets z = x²: (a0+a1u)² = (a0+a1)(a0-a1) + 2a0a1·u.
func squareGeneric(z, x *E2) {
	var sum, diff, prod fp.Element
	sum = addBackP(subModulus(limbAdd(&x.A0, &x.A1)))
	diff = addBackP(limbSub(&x.A0, &x.A1))
	prod.Mul(&x.A0, &x.A1)
	z.A0.Mul(&sum, &diff)
	z.A1 = addBackP(subModulus(limbAdd(&prod, &prod)))
}

// MulByElement sets z = x scaled by the base-field element c.
func (z *E2) MulByElement(x *E2, c *fp.Element) *E2 {
	z.A0.Mul(&x.A0, c)
	z.A1.Mul(&x.A1, c)
	return z
}

// MulByNonResidue sets z = x·ξ with ξ = 9+u:
// (a0+a1u)(9+u) = (9a0 - a1) + (a0 + 9a1)u.
// 9x = 8x + x costs three doublings and an add — much cheaper than a
// Montgomery product by the constant 9 (this runs once per pairing
// doubling step and throughout the Frobenius tower).
func (z *E2) MulByNonResidue(x *E2) *E2 {
	var t E2
	addP(&t, x, x)
	addP(&t, &t, &t)
	addP(&t, &t, &t)
	addP(&t, &t, x)
	a1 := x.A1 // z may alias x
	z.A1 = addBackP(subModulus(limbAdd(&t.A1, &x.A0)))
	z.A0 = addBackP(limbSub(&t.A0, &a1))
	return z
}

// Norm returns a0² + a1², the norm of z over F_p.
func (z *E2) Norm(res *fp.Element) *fp.Element {
	var t0, t1 fp.Element
	t0.Square(&z.A0)
	t1.Square(&z.A1)
	res.Add(&t0, &t1)
	return res
}

// Inverse sets z = 1/x (or 0 for x == 0) using the conjugate/norm
// identity, and returns z.
func (z *E2) Inverse(x *E2) *E2 {
	var norm, normInv fp.Element
	x.Norm(&norm)
	normInv.Inverse(&norm)
	z.A0.Mul(&x.A0, &normInv)
	var t fp.Element
	t.Mul(&x.A1, &normInv)
	z.A1.Neg(&t)
	return z
}

// Exp sets z = x^k for a non-negative exponent and returns z.
func (z *E2) Exp(x *E2, k *big.Int) *E2 {
	if k.Sign() < 0 {
		panic("ext: negative exponent")
	}
	var res E2
	res.SetOne()
	base := *x
	for i := k.BitLen() - 1; i >= 0; i-- {
		res.Square(&res)
		if k.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	return z.Set(&res)
}

// Sqrt sets z to a square root of x, if one exists, and returns z; it
// returns nil when x is a non-residue in F_p². Used only for
// deterministic G2 generator derivation, so clarity beats speed: it uses
// the norm-descent method via base-field square roots.
func (z *E2) Sqrt(x *E2) *E2 {
	if x.IsZero() {
		return z.SetZero()
	}
	if x.A1.IsZero() {
		// Purely real: either sqrt(a0) in F_p, or sqrt(-a0)·u.
		var r fp.Element
		if r.Sqrt(&x.A0) != nil {
			z.A0.Set(&r)
			z.A1.SetZero()
			return z
		}
		var na fp.Element
		na.Neg(&x.A0)
		if r.Sqrt(&na) == nil {
			return nil
		}
		z.A0.SetZero()
		z.A1.Set(&r)
		return z
	}
	// General case: for candidate c = c0 + c1 u with c² = x we need
	// c0² - c1² = a0 and 2 c0 c1 = a1. Let n = sqrt(a0² + a1²) (the norm
	// of x must be a square for x to be a square). Then c0² = (a0+n)/2
	// (or (a0-n)/2) and c1 = a1 / (2 c0).
	var norm, n fp.Element
	x.Norm(&norm)
	if n.Sqrt(&norm) == nil {
		return nil
	}
	var half, c0sq, c0 fp.Element
	half.SetUint64(2)
	half.Inverse(&half)
	c0sq.Add(&x.A0, &n)
	c0sq.Mul(&c0sq, &half)
	if c0.Sqrt(&c0sq) == nil {
		c0sq.Sub(&x.A0, &n)
		c0sq.Mul(&c0sq, &half)
		if c0.Sqrt(&c0sq) == nil {
			return nil
		}
	}
	var twoC0Inv, c1 fp.Element
	twoC0Inv.Double(&c0)
	twoC0Inv.Inverse(&twoC0Inv)
	c1.Mul(&x.A1, &twoC0Inv)
	z.A0.Set(&c0)
	z.A1.Set(&c1)
	// Validate (guards against c0 == 0 edge cases).
	var chk E2
	chk.Square(z)
	if !chk.Equal(x) {
		return nil
	}
	return z
}

// Select sets z = a if cond == 0, else b, and returns z.
func (z *E2) Select(cond int, a, b *E2) *E2 {
	if cond == 0 {
		return z.Set(a)
	}
	return z.Set(b)
}

// LexicographicallyLargest reports whether z is "positive": compare A1
// first, then A0, against the half-field boundary. Used for G2 point
// compression.
func (z *E2) LexicographicallyLargest() bool {
	if !z.A1.IsZero() {
		return z.A1.LexicographicallyLargest()
	}
	return z.A0.LexicographicallyLargest()
}

// BatchInvertE2 inverts a slice of F_p² elements with Montgomery's trick.
// Zero entries map to zero.
func BatchInvertE2(a []E2) []E2 {
	res := make([]E2, len(a))
	BatchInvertE2Into(a, res)
	return res
}

// BatchInvertE2Into is BatchInvertE2 writing into caller-owned storage
// (the G2 batch-affine bucket adder reuses one scratch buffer across
// flushes). res must have len(a) entries; a and res may not alias.
func BatchInvertE2Into(a, res []E2) {
	if len(a) != len(res) {
		panic("ext: BatchInvertE2Into length mismatch")
	}
	if len(a) == 0 {
		return
	}
	var acc E2
	acc.SetOne()
	for i := range a {
		if a[i].IsZero() {
			res[i].SetZero()
			continue
		}
		res[i] = acc
		acc.Mul(&acc, &a[i])
	}
	var accInv E2
	accInv.Inverse(&acc)
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].IsZero() {
			continue
		}
		res[i].Mul(&res[i], &accInv)
		accInv.Mul(&accInv, &a[i])
	}
}
