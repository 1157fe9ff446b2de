package ext

import (
	"math/big"

	"zkrownn/internal/bn254/fp"
)

// E12 is an element c0 + c1·w of F_p¹² = F_p⁶[w]/(w² - v).
type E12 struct {
	C0, C1 E6
}

// SetZero sets z to 0 and returns z.
func (z *E12) SetZero() *E12 {
	z.C0.SetZero()
	z.C1.SetZero()
	return z
}

// SetOne sets z to 1 and returns z.
func (z *E12) SetOne() *E12 {
	z.C0.SetOne()
	z.C1.SetZero()
	return z
}

// Set copies x into z and returns z.
func (z *E12) Set(x *E12) *E12 { *z = *x; return z }

// IsZero reports whether z == 0.
func (z *E12) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() }

// IsOne reports whether z == 1.
func (z *E12) IsOne() bool { return z.C0.IsOne() && z.C1.IsZero() }

// Equal reports whether z == x.
func (z *E12) Equal(x *E12) bool { return z.C0.Equal(&x.C0) && z.C1.Equal(&x.C1) }

// Add sets z = x + y and returns z.
func (z *E12) Add(x, y *E12) *E12 {
	z.C0.Add(&x.C0, &y.C0)
	z.C1.Add(&x.C1, &y.C1)
	return z
}

// Sub sets z = x - y and returns z.
func (z *E12) Sub(x, y *E12) *E12 {
	z.C0.Sub(&x.C0, &y.C0)
	z.C1.Sub(&x.C1, &y.C1)
	return z
}

// Neg sets z = -x and returns z.
func (z *E12) Neg(x *E12) *E12 {
	z.C0.Neg(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Mul sets z = x·y (Karatsuba over F_p⁶, reduction w² = v) and returns z.
func (z *E12) Mul(x, y *E12) *E12 {
	var t0, t1, tsum, c0, c1 E6
	t0.Mul(&x.C0, &y.C0)
	t1.Mul(&x.C1, &y.C1)

	// c1 = (x0+x1)(y0+y1) - t0 - t1
	c1.Add(&x.C0, &x.C1)
	tsum.Add(&y.C0, &y.C1)
	c1.Mul(&c1, &tsum)
	c1.Sub(&c1, &t0)
	c1.Sub(&c1, &t1)

	// c0 = t0 + v·t1
	c0.MulByNonResidue(&t1)
	c0.Add(&c0, &t0)

	z.C0.Set(&c0)
	z.C1.Set(&c1)
	return z
}

// Square sets z = x² using the complex-squaring shortcut and returns z.
func (z *E12) Square(x *E12) *E12 {
	// (c0 + c1 w)² = (c0² + v c1²) + 2 c0 c1 w
	//             = (c0+c1)(c0 + v c1) - c0c1 - v c0c1 + 2 c0 c1 w
	var t0, t1, t2 E6
	t0.Add(&x.C0, &x.C1)
	t1.MulByNonResidue(&x.C1)
	t1.Add(&t1, &x.C0)
	t2.Mul(&x.C0, &x.C1)
	t0.Mul(&t0, &t1)
	var vT2 E6
	vT2.MulByNonResidue(&t2)
	t0.Sub(&t0, &t2)
	t0.Sub(&t0, &vT2)
	z.C0.Set(&t0)
	z.C1.Double(&t2)
	return z
}

// Conjugate sets z = c0 - c1·w (the F_p⁶-conjugate, which equals the
// p⁶-power Frobenius) and returns z.
func (z *E12) Conjugate(x *E12) *E12 {
	z.C0.Set(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Inverse sets z = 1/x (or 0 for x == 0) and returns z.
func (z *E12) Inverse(x *E12) *E12 {
	// 1/(c0 + c1 w) = (c0 - c1 w)/(c0² - v c1²)
	var t0, t1, denom E6
	t0.Square(&x.C0)
	t1.Square(&x.C1)
	t1.MulByNonResidue(&t1)
	denom.Sub(&t0, &t1)
	denom.Inverse(&denom)
	z.C0.Mul(&x.C0, &denom)
	var neg E6
	neg.Neg(&x.C1)
	z.C1.Mul(&neg, &denom)
	return z
}

// Exp sets z = x^k for a non-negative big.Int exponent and returns z.
func (z *E12) Exp(x *E12, k *big.Int) *E12 {
	if k.Sign() < 0 {
		panic("ext: negative exponent")
	}
	var res E12
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

// MulBy034 sets z = z·l for a Miller-loop line l = c0 + c3·w + c4·v·w
// (tower slots C0.B0, C1.B0, C1.B1 — the shape affine line evaluations
// take through the D-type untwist, where c0 is the G1 point's
// y-coordinate and so lies in F_p) and returns z. Karatsuba over w with
// both halves sparse: 10 F_p² and 6 F_p multiplications against the
// dense Mul's 18 F_p².
func (z *E12) MulBy034(c0 *fp.Element, c3, c4 *E2) *E12 {
	var a, b, c E6
	a.MulByElement(&z.C0, c0) // z0·c0
	b.MulBy01(&z.C1, c3, c4)  // z1·(c3 + c4·v)

	// c = (z0 + z1)·((c0 + c3) + c4·v) - a - b = z0·(c3 + c4·v) + z1·c0
	d0 := *c3
	d0.A0.Add(&d0.A0, c0)
	c.Add(&z.C0, &z.C1)
	c.MulBy01(&c, &d0, c4)
	c.Sub(&c, &a)
	z.C1.Sub(&c, &b)

	// z0·c0 + v·z1·(c3 + c4·v)
	b.MulByNonResidue(&b)
	z.C0.Add(&a, &b)
	return z
}
