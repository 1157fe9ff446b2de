package refimpl

import "math/big"

// G2 is a point of the sextic twist E': y² = x³ + b' over F_p², with
// b' = 3/ξ, in affine coordinates, or the point at infinity. The group
// law is G1's chord-and-tangent one over E2. The oracle derives b' from
// ξ and hard-codes no generator: a test takes one from the code under
// test as data and accepts it only after IsOnCurve and r·Q = ∞ hold
// here.
type G2 struct {
	X, Y E2
	Inf  bool
}

// TwistB returns b' = 3/ξ, the twist's constant.
func TwistB() E2 { return NewE2(big.NewInt(3), new(big.Int)).Mul(Xi().Inverse()) }

var twistB = TwistB()

// G2Infinity returns the point at infinity.
func G2Infinity() G2 { return G2{X: E2Zero(), Y: E2Zero(), Inf: true} }

// NewG2 returns the affine point (x, y). It does not check that the
// point is on the twist.
func NewG2(x, y E2) G2 { return G2{X: NewE2(x.A0, x.A1), Y: NewE2(y.A0, y.A1)} }

// Equal reports whether p = q.
func (p G2) Equal(q G2) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// IsOnCurve reports whether p is infinity or satisfies y² = x³ + b'.
func (p G2) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	return p.Y.Mul(p.Y).Equal(p.X.Mul(p.X).Mul(p.X).Add(twistB))
}

// Neg returns -p = (x, -y).
func (p G2) Neg() G2 {
	if p.Inf {
		return G2Infinity()
	}
	return G2{X: NewE2(p.X.A0, p.X.A1), Y: p.Y.Neg()}
}

// Add returns p + q.
func (p G2) Add(q G2) G2 {
	switch {
	case p.Inf:
		return q.copy()
	case q.Inf:
		return p.copy()
	case p.X.Equal(q.X) && p.Y.Add(q.Y).Equal(E2Zero()):
		return G2Infinity() // q = -p, including 2-torsion
	case p.X.Equal(q.X):
		return p.Double()
	}
	// λ = (y₂ - y₁) / (x₂ - x₁)
	lambda := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inverse())
	return p.chord(q, lambda)
}

// Double returns 2p.
func (p G2) Double() G2 {
	if p.Inf || p.Y.Equal(E2Zero()) {
		return G2Infinity()
	}
	// λ = 3x² / 2y
	xx := p.X.Mul(p.X)
	lambda := xx.Add(xx).Add(xx).Mul(p.Y.Add(p.Y).Inverse())
	return p.chord(p, lambda)
}

// chord returns the third intersection of the line of slope lambda
// through p and q, reflected: x₃ = λ² - x₁ - x₂, y₃ = λ(x₁ - x₃) - y₁.
func (p G2) chord(q G2, lambda E2) G2 {
	x3 := lambda.Mul(lambda).Sub(p.X).Sub(q.X)
	y3 := lambda.Mul(p.X.Sub(x3)).Sub(p.Y)
	return G2{X: x3, Y: y3}
}

// ScalarMul returns k·p for k ≥ 0 by double-and-add from the top bit.
func (p G2) ScalarMul(k *big.Int) G2 {
	if k.Sign() < 0 {
		panic("refimpl: negative scalar")
	}
	acc := G2Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if k.Bit(i) == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

func (p G2) copy() G2 {
	return G2{X: NewE2(p.X.A0, p.X.A1), Y: NewE2(p.Y.A0, p.Y.A1), Inf: p.Inf}
}
