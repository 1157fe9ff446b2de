package refimpl

import "math/big"

// E2 is a0 + a1·u in F_p² = F_p[u]/(u² + 1). Methods return fresh values.
type E2 struct {
	A0, A1 *big.Int
}

// NewE2 returns a0 + a1·u with both coordinates reduced mod p.
func NewE2(a0, a1 *big.Int) E2 { return E2{Fp.Reduce(a0), Fp.Reduce(a1)} }

// E2Zero returns 0.
func E2Zero() E2 { return NewE2(new(big.Int), new(big.Int)) }

// E2One returns 1.
func E2One() E2 { return NewE2(big.NewInt(1), new(big.Int)) }

// Xi returns ξ = 9 + u, the sextic non-residue that defines F_p¹².
func Xi() E2 { return NewE2(big.NewInt(9), big.NewInt(1)) }

// Equal reports whether x = y.
func (x E2) Equal(y E2) bool { return x.A0.Cmp(y.A0) == 0 && x.A1.Cmp(y.A1) == 0 }

// Add returns x + y.
func (x E2) Add(y E2) E2 { return E2{Fp.Add(x.A0, y.A0), Fp.Add(x.A1, y.A1)} }

// Sub returns x - y.
func (x E2) Sub(y E2) E2 { return E2{Fp.Sub(x.A0, y.A0), Fp.Sub(x.A1, y.A1)} }

// Neg returns -x.
func (x E2) Neg() E2 { return E2{Fp.Neg(x.A0), Fp.Neg(x.A1)} }

// Conjugate returns a0 - a1·u.
func (x E2) Conjugate() E2 { return E2{Fp.Reduce(x.A0), Fp.Neg(x.A1)} }

// Scale returns x·c for c ∈ F_p.
func (x E2) Scale(c *big.Int) E2 { return E2{Fp.Mul(x.A0, c), Fp.Mul(x.A1, c)} }

// Mul returns x·y by the schoolbook product with u² = -1:
// (a0·b0 - a1·b1) + (a0·b1 + a1·b0)·u.
func (x E2) Mul(y E2) E2 {
	return E2{
		Fp.Sub(Fp.Mul(x.A0, y.A0), Fp.Mul(x.A1, y.A1)),
		Fp.Add(Fp.Mul(x.A0, y.A1), Fp.Mul(x.A1, y.A0)),
	}
}

// Inverse returns 1/x = conj(x)/(a0² + a1²), and 0 for x = 0.
func (x E2) Inverse() E2 {
	norm := Fp.Add(Fp.Mul(x.A0, x.A0), Fp.Mul(x.A1, x.A1))
	return x.Conjugate().Scale(Fp.Inverse(norm))
}

// E12 is Σ C[k]·w^k in F_p¹² = F_p²[w]/(w⁶ - ξ): one polynomial ring
// over F_p², not the stack's F_p² → F_p⁶ → F_p¹² tower. The tower's
// coefficient c_i·vⁱ·wʲ (v = w²) sits at C[2i+j].
type E12 [6]E2

// E12One returns 1.
func E12One() E12 {
	var z E12
	for k := range z {
		z[k] = E2Zero()
	}
	z[0] = E2One()
	return z
}

// Equal reports whether x = y.
func (x E12) Equal(y E12) bool {
	for k := range x {
		if !x[k].Equal(y[k]) {
			return false
		}
	}
	return true
}

// Mul returns x·y: the schoolbook product of two degree-5 polynomials,
// then w^(6+k) = ξ·w^k folds the high half down.
func (x E12) Mul(y E12) E12 {
	var wide [11]E2
	for k := range wide {
		wide[k] = E2Zero()
	}
	for i := range x {
		for j := range y {
			wide[i+j] = wide[i+j].Add(x[i].Mul(y[j]))
		}
	}
	var z E12
	for k := range z {
		z[k] = wide[k]
		if k+6 < len(wide) {
			z[k] = z[k].Add(wide[k+6].Mul(Xi()))
		}
	}
	return z
}

// Exp returns x^e for e ≥ 0 by square-and-multiply.
func (x E12) Exp(e *big.Int) E12 {
	z := E12One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		z = z.Mul(z)
		if e.Bit(i) == 1 {
			z = z.Mul(x)
		}
	}
	return z
}
