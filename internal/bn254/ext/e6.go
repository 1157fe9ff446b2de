package ext

import "zkrownn/internal/bn254/fp"

// E6 is an element b0 + b1·v + b2·v² of F_p⁶ = F_p²[v]/(v³ - ξ).
type E6 struct {
	B0, B1, B2 E2
}

// SetZero sets z to 0 and returns z.
func (z *E6) SetZero() *E6 {
	z.B0.SetZero()
	z.B1.SetZero()
	z.B2.SetZero()
	return z
}

// SetOne sets z to 1 and returns z.
func (z *E6) SetOne() *E6 {
	z.B0.SetOne()
	z.B1.SetZero()
	z.B2.SetZero()
	return z
}

// Set copies x into z and returns z.
func (z *E6) Set(x *E6) *E6 { *z = *x; return z }

// IsZero reports whether z == 0.
func (z *E6) IsZero() bool { return z.B0.IsZero() && z.B1.IsZero() && z.B2.IsZero() }

// IsOne reports whether z == 1.
func (z *E6) IsOne() bool { return z.B0.IsOne() && z.B1.IsZero() && z.B2.IsZero() }

// Equal reports whether z == x.
func (z *E6) Equal(x *E6) bool {
	return z.B0.Equal(&x.B0) && z.B1.Equal(&x.B1) && z.B2.Equal(&x.B2)
}

// Add sets z = x + y and returns z.
func (z *E6) Add(x, y *E6) *E6 {
	z.B0.Add(&x.B0, &y.B0)
	z.B1.Add(&x.B1, &y.B1)
	z.B2.Add(&x.B2, &y.B2)
	return z
}

// Sub sets z = x - y and returns z.
func (z *E6) Sub(x, y *E6) *E6 {
	z.B0.Sub(&x.B0, &y.B0)
	z.B1.Sub(&x.B1, &y.B1)
	z.B2.Sub(&x.B2, &y.B2)
	return z
}

// Double sets z = 2x and returns z.
func (z *E6) Double(x *E6) *E6 {
	z.B0.Double(&x.B0)
	z.B1.Double(&x.B1)
	z.B2.Double(&x.B2)
	return z
}

// Neg sets z = -x and returns z.
func (z *E6) Neg(x *E6) *E6 {
	z.B0.Neg(&x.B0)
	z.B1.Neg(&x.B1)
	z.B2.Neg(&x.B2)
	return z
}

// Mul sets z = x·y with the Toom-Cook-style interpolation
// (Devegili et al., "Multiplication and Squaring on Pairing-Friendly
// Fields", §4) and returns z.
func (z *E6) Mul(x, y *E6) *E6 {
	var t0, t1, t2, c0, c1, c2, tmp E2
	t0.Mul(&x.B0, &y.B0)
	t1.Mul(&x.B1, &y.B1)
	t2.Mul(&x.B2, &y.B2)

	// c0 = t0 + ξ((b1+b2)(d1+d2) - t1 - t2)
	c0.Add(&x.B1, &x.B2)
	tmp.Add(&y.B1, &y.B2)
	c0.Mul(&c0, &tmp)
	c0.Sub(&c0, &t1)
	c0.Sub(&c0, &t2)
	c0.MulByNonResidue(&c0)
	c0.Add(&c0, &t0)

	// c1 = (b0+b1)(d0+d1) - t0 - t1 + ξ t2
	c1.Add(&x.B0, &x.B1)
	tmp.Add(&y.B0, &y.B1)
	c1.Mul(&c1, &tmp)
	c1.Sub(&c1, &t0)
	c1.Sub(&c1, &t1)
	tmp.MulByNonResidue(&t2)
	c1.Add(&c1, &tmp)

	// c2 = (b0+b2)(d0+d2) - t0 - t2 + t1
	c2.Add(&x.B0, &x.B2)
	tmp.Add(&y.B0, &y.B2)
	c2.Mul(&c2, &tmp)
	c2.Sub(&c2, &t0)
	c2.Sub(&c2, &t2)
	c2.Add(&c2, &t1)

	z.B0.Set(&c0)
	z.B1.Set(&c1)
	z.B2.Set(&c2)
	return z
}

// Square sets z = x² and returns z.
func (z *E6) Square(x *E6) *E6 { return z.Mul(x, x) }

// MulByNonResidue sets z = x·v, i.e. (b0, b1, b2) -> (ξ·b2, b0, b1),
// and returns z.
func (z *E6) MulByNonResidue(x *E6) *E6 {
	var t E2
	t.MulByNonResidue(&x.B2)
	b0 := x.B0
	b1 := x.B1
	z.B0.Set(&t)
	z.B1.Set(&b0)
	z.B2.Set(&b1)
	return z
}

// MulByElement scales every coefficient of x by the base-field element c.
func (z *E6) MulByElement(x *E6, c *fp.Element) *E6 {
	z.B0.MulByElement(&x.B0, c)
	z.B1.MulByElement(&x.B1, c)
	z.B2.MulByElement(&x.B2, c)
	return z
}

// MulBy01 sets z = x·(c0 + c1·v), the product with an element whose v²
// coefficient is zero, and returns z: 5 F_p² multiplications against
// Mul's 6.
func (z *E6) MulBy01(x *E6, c0, c1 *E2) *E6 {
	var t0, t1, r0, r1, r2, tmp E2
	t0.Mul(&x.B0, c0)
	t1.Mul(&x.B1, c1)

	// r0 = t0 + ξ·b2·c1 = t0 + ξ((b1+b2)·c1 - t1)
	r0.Add(&x.B1, &x.B2)
	r0.Mul(&r0, c1)
	r0.Sub(&r0, &t1)
	r0.MulByNonResidue(&r0)
	r0.Add(&r0, &t0)

	// r1 = b0·c1 + b1·c0 = (b0+b1)(c0+c1) - t0 - t1
	r1.Add(&x.B0, &x.B1)
	tmp.Add(c0, c1)
	r1.Mul(&r1, &tmp)
	r1.Sub(&r1, &t0)
	r1.Sub(&r1, &t1)

	// r2 = b2·c0 + t1
	r2.Mul(&x.B2, c0)
	r2.Add(&r2, &t1)

	z.B0.Set(&r0)
	z.B1.Set(&r1)
	z.B2.Set(&r2)
	return z
}

// Inverse sets z = 1/x (or 0 for x == 0) and returns z, following
// Algorithm 17 of Devegili et al.
func (z *E6) Inverse(x *E6) *E6 {
	// A = b0² - ξ b1 b2
	// B = ξ b2² - b0 b1
	// C = b1² - b0 b2
	// F = b0 A + ξ(b2 B + b1 C); z = (A, B, C)/F
	var a, b, c, t, f, fInv E2
	a.Square(&x.B0)
	t.Mul(&x.B1, &x.B2)
	t.MulByNonResidue(&t)
	a.Sub(&a, &t)

	b.Square(&x.B2)
	b.MulByNonResidue(&b)
	t.Mul(&x.B0, &x.B1)
	b.Sub(&b, &t)

	c.Square(&x.B1)
	t.Mul(&x.B0, &x.B2)
	c.Sub(&c, &t)

	f.Mul(&x.B2, &b)
	t.Mul(&x.B1, &c)
	f.Add(&f, &t)
	f.MulByNonResidue(&f)
	t.Mul(&x.B0, &a)
	f.Add(&f, &t)

	fInv.Inverse(&f)
	z.B0.Mul(&a, &fInv)
	z.B1.Mul(&b, &fInv)
	z.B2.Mul(&c, &fInv)
	return z
}
