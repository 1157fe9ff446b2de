package curve

import (
	"math/big"

	"zkrownn/internal/bn254/fr"
)

// Jacobian is what group-level code asks of a Jacobian point type J with
// affine form A: the pointer methods G1Jac and G2Jac share. Code that
// touches no coordinate — scalar multiplication, the MSM's bucket sums,
// SnarkPack's vector folds in groth16 — is written once over it, while
// the point formulas behind the methods stay per group (field-generic
// point structs measured 1.2–2.0× slower under dictionary dispatch).
//
// A method of a type parameter is called through the instantiation's
// dictionary, where escape analysis loses its pointer arguments: a local
// whose address such a call takes moves to the heap. Generic bodies
// therefore pass only slice elements or scratch fields by pointer in
// their loops.
type Jacobian[A, J any] interface {
	*J
	SetInfinity() *J
	IsInfinity() bool
	Neg(q *J) *J
	DoubleAssign() *J
	AddAssign(q *J) *J
	AddMixed(q *A) *J
	FromAffine(q *A) *J
	ScalarMul(q *J, k *fr.Element) *J
}

// scalarMulBig sets p = k·q for a big.Int scalar (double-and-add, MSB
// first) and returns p. Negative scalars negate the point; p may alias q.
func scalarMulBig[A, J any, P Jacobian[A, J]](p, q P, k *big.Int) P {
	base := P(new(J))
	*base = *q
	if k.Sign() < 0 {
		base.Neg(base)
	}
	kk := new(big.Int).Abs(k)
	p.SetInfinity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		p.DoubleAssign()
		if kk.Bit(i) == 1 {
			p.AddAssign(base)
		}
	}
	return p
}

// wnafWindow is the width-w NAF window used by the single-point scalar
// multiplications: 8 precomputed odd multiples cut additions to ~n/(w+1).
const wnafWindow = 4

// wnafDigits recodes |k| into width-w NAF form (least significant
// first): every non-zero digit is odd, |d| < 2^w, and any w+1
// consecutive digits contain at most one non-zero.
func wnafDigits(k *big.Int, w uint) []int8 {
	digits := make([]int8, 0, k.BitLen()+1)
	n := new(big.Int).Abs(k)
	mod := int64(1) << (w + 1)
	half := int64(1) << w
	tmp := new(big.Int)
	for n.Sign() > 0 {
		var d int64
		if n.Bit(0) == 1 {
			d = tmp.And(n, big.NewInt(mod-1)).Int64()
			if d >= half {
				d -= mod
			}
			tmp.SetInt64(d)
			n.Sub(n, tmp)
		}
		digits = append(digits, int8(d))
		n.Rsh(n, 1)
	}
	return digits
}

// scalarMul sets p = k·q using a width-4 NAF with 8 precomputed odd
// multiples — ~1.2× faster than the binary ladder for 254-bit scalars —
// and returns p. p may alias q.
func scalarMul[A, J any, P Jacobian[A, J]](p, q P, k *fr.Element) P {
	kk := k.ToBigInt()
	if kk.Sign() == 0 || q.IsInfinity() {
		p.SetInfinity()
		return p
	}
	digits := wnafDigits(kk, wnafWindow)

	// tbl holds the odd multiples 1q, 3q, ..., 15q, their negations, and
	// 2q last, kept Jacobian: a one-shot scalar multiplication cannot
	// amortize an affine normalization (it costs a field inversion, ~100
	// Jacobian additions' worth). Copying q in first is what lets p alias
	// it.
	const odd = 1 << (wnafWindow - 1)
	tbl := make([]J, 2*odd+1)
	twoQ := P(&tbl[2*odd])
	*twoQ = *q
	twoQ.DoubleAssign()
	tbl[0] = *q
	for i := 1; i < odd; i++ {
		tbl[i] = tbl[i-1]
		P(&tbl[i]).AddAssign(twoQ)
	}
	for i := range odd {
		P(&tbl[odd+i]).Neg(&tbl[i])
	}

	p.SetInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		p.DoubleAssign()
		switch d := digits[i]; {
		case d > 0:
			p.AddAssign(&tbl[(d-1)/2])
		case d < 0:
			p.AddAssign(&tbl[odd+(-d-1)/2])
		}
	}
	return p
}
