package refimpl

import "math/big"

// G1 is a point of E: y² = x³ + 3 over F_p in affine coordinates, or the
// point at infinity. The group law is the chord-and-tangent one, one
// case per branch; there are no projective coordinates, no batching and
// no windows. The constants it hard-codes are b = 3 and the generator
// (1, 2).
type G1 struct {
	X, Y *big.Int
	Inf  bool
}

var curveB = big.NewInt(3)

// G1Infinity returns the point at infinity.
func G1Infinity() G1 { return G1{X: new(big.Int), Y: new(big.Int), Inf: true} }

// G1Generator returns the generator (1, 2).
func G1Generator() G1 { return NewG1(big.NewInt(1), big.NewInt(2)) }

// NewG1 returns the affine point (x, y), coordinates reduced mod p. It
// does not check that the point is on the curve.
func NewG1(x, y *big.Int) G1 { return G1{X: Fp.Reduce(x), Y: Fp.Reduce(y)} }

// Equal reports whether p = q.
func (p G1) Equal(q G1) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// IsOnCurve reports whether p is infinity or satisfies y² = x³ + 3.
func (p G1) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	rhs := Fp.Add(Fp.Mul(Fp.Mul(p.X, p.X), p.X), curveB)
	return Fp.Mul(p.Y, p.Y).Cmp(rhs) == 0
}

// Neg returns -p = (x, -y).
func (p G1) Neg() G1 {
	if p.Inf {
		return G1Infinity()
	}
	return G1{X: Fp.Reduce(p.X), Y: Fp.Neg(p.Y)}
}

// Add returns p + q.
func (p G1) Add(q G1) G1 {
	switch {
	case p.Inf:
		return q.copy()
	case q.Inf:
		return p.copy()
	case p.X.Cmp(q.X) == 0 && Fp.Add(p.Y, q.Y).Sign() == 0:
		return G1Infinity() // q = -p, including 2-torsion (none on E)
	case p.X.Cmp(q.X) == 0:
		return p.Double()
	}
	// λ = (y₂ - y₁) / (x₂ - x₁)
	lambda := Fp.Mul(Fp.Sub(q.Y, p.Y), Fp.Inverse(Fp.Sub(q.X, p.X)))
	return p.chord(q, lambda)
}

// Double returns 2p.
func (p G1) Double() G1 {
	if p.Inf || p.Y.Sign() == 0 {
		return G1Infinity()
	}
	// λ = 3x² / 2y
	num := Fp.Mul(big.NewInt(3), Fp.Mul(p.X, p.X))
	lambda := Fp.Mul(num, Fp.Inverse(Fp.Add(p.Y, p.Y)))
	return p.chord(p, lambda)
}

// chord returns the third intersection of the line of slope lambda
// through p and q, reflected: x₃ = λ² - x₁ - x₂, y₃ = λ(x₁ - x₃) - y₁.
func (p G1) chord(q G1, lambda *big.Int) G1 {
	x3 := Fp.Sub(Fp.Sub(Fp.Mul(lambda, lambda), p.X), q.X)
	y3 := Fp.Sub(Fp.Mul(lambda, Fp.Sub(p.X, x3)), p.Y)
	return G1{X: x3, Y: y3}
}

// ScalarMul returns k·p for k ≥ 0 by double-and-add from the top bit.
func (p G1) ScalarMul(k *big.Int) G1 {
	if k.Sign() < 0 {
		panic("refimpl: negative scalar")
	}
	acc := G1Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if k.Bit(i) == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

func (p G1) copy() G1 {
	return G1{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y), Inf: p.Inf}
}
