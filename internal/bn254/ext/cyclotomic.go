package ext

// CyclotomicSquare squares an element of the cyclotomic subgroup
// G_Φ₁₂(p) ⊂ F_p¹²* (where x^(p⁶+1) = 1, i.e. after the easy part of the
// final exponentiation) using the Granger-Scott compressed formulas —
// roughly half the cost of a generic F_p¹² squaring. The result is
// undefined for elements outside the subgroup; callers are responsible
// for the domain: pairing.FinalExponentiation squares its easy-part
// output, and groth16 raises reduced pairing values (the cached e(α, β))
// to batch challenges through CyclotomicExp.
func (z *E12) CyclotomicSquare(x *E12) *E12 {
	// Coordinates as (x.C0.B0, x.C0.B1, x.C0.B2, x.C1.B0, x.C1.B1,
	// x.C1.B2) = (x0, x1, x2, x3, x4, x5); the Granger-Scott identity
	// squares the three quadratic sub-extensions independently.
	var t [9]E2

	t[0].Square(&x.C1.B1)
	t[1].Square(&x.C0.B0)
	t[6].Add(&x.C1.B1, &x.C0.B0)
	t[6].Square(&t[6])
	t[6].Sub(&t[6], &t[0])
	t[6].Sub(&t[6], &t[1]) // 2·x4·x0
	t[2].Square(&x.C0.B2)
	t[3].Square(&x.C1.B0)
	t[7].Add(&x.C0.B2, &x.C1.B0)
	t[7].Square(&t[7])
	t[7].Sub(&t[7], &t[2])
	t[7].Sub(&t[7], &t[3]) // 2·x2·x3
	t[4].Square(&x.C1.B2)
	t[5].Square(&x.C0.B1)
	t[8].Add(&x.C1.B2, &x.C0.B1)
	t[8].Square(&t[8])
	t[8].Sub(&t[8], &t[4])
	t[8].Sub(&t[8], &t[5])
	t[8].MulByNonResidue(&t[8]) // 2·x5·x1·ξ

	t[0].MulByNonResidue(&t[0])
	t[0].Add(&t[0], &t[1]) // ξ·x4² + x0²
	t[2].MulByNonResidue(&t[2])
	t[2].Add(&t[2], &t[3]) // ξ·x2² + x3²
	t[4].MulByNonResidue(&t[4])
	t[4].Add(&t[4], &t[5]) // ξ·x5² + x1²

	z.C0.B0.Sub(&t[0], &x.C0.B0)
	z.C0.B0.Double(&z.C0.B0)
	z.C0.B0.Add(&z.C0.B0, &t[0])

	z.C0.B1.Sub(&t[2], &x.C0.B1)
	z.C0.B1.Double(&z.C0.B1)
	z.C0.B1.Add(&z.C0.B1, &t[2])

	z.C0.B2.Sub(&t[4], &x.C0.B2)
	z.C0.B2.Double(&z.C0.B2)
	z.C0.B2.Add(&z.C0.B2, &t[4])

	z.C1.B0.Add(&t[8], &x.C1.B0)
	z.C1.B0.Double(&z.C1.B0)
	z.C1.B0.Add(&z.C1.B0, &t[8])

	z.C1.B1.Add(&t[6], &x.C1.B1)
	z.C1.B1.Double(&z.C1.B1)
	z.C1.B1.Add(&z.C1.B1, &t[6])

	z.C1.B2.Add(&t[7], &x.C1.B2)
	z.C1.B2.Double(&z.C1.B2)
	z.C1.B2.Add(&z.C1.B2, &t[7])
	return z
}

// CyclotomicExp raises a cyclotomic-subgroup element to a non-negative
// exponent with square-and-multiply, using the compressed squaring.
func (z *E12) CyclotomicExp(x *E12, k interface {
	Bit(int) uint
	BitLen() int
}) *E12 {
	n := k.BitLen()
	if n == 0 {
		return z.SetOne()
	}
	base := *x
	res := base // the top bit
	for i := n - 2; i >= 0; i-- {
		res.CyclotomicSquare(&res)
		if k.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	return z.Set(&res)
}
