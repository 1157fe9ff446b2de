package pairing

import (
	"math/big"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
)

// The reference pairing: the textbook implementation this package
// shipped before line tables, kept verbatim as the oracle the
// differential tests (differential_test.go) hold the production code to.
// Every pair runs its own affine Miller loop — doubling and addition
// steps interleaved with the accumulator updates, one F_p² inversion per
// step, every line multiplied in as a dense F_p¹² element — and the hard
// part of the final exponentiation is one square-and-multiply by the
// 761-bit (p⁴-p²+1)/r. It shares the tower arithmetic (ext), the NAF
// digits and ψ with the production code, and nothing else.

// refHardExp is (p⁴ - p² + 1)/r.
var refHardExp big.Int

func init() {
	p := fp.Modulus()
	p2 := new(big.Int).Mul(p, p)
	hard := new(big.Int).Mul(p2, p2)
	hard.Sub(hard, p2)
	hard.Add(hard, big.NewInt(1))
	refHardExp.Div(hard, curve.GroupOrder())
}

// refLineEval multiplies f in place by the line through the twist points
// anchored at (x1, y1) with twist slope lambda, evaluated at the G1 point
// (xP, yP): l = yP - (λ·xP)·w + (λ·x1 - y1)·v·w.
func refLineEval(f *ext.E12, lambda, x1, y1 *ext.E2, p *curve.G1Affine) {
	var c0, c3, c4 ext.E2
	c0.A0.Set(&p.Y)
	c3.MulByElement(lambda, &p.X)
	c3.Neg(&c3)
	c4.Mul(lambda, x1)
	c4.Sub(&c4, y1)
	var l ext.E12
	l.C0.B0.Set(&c0)
	l.C1.B0.Set(&c3)
	l.C1.B1.Set(&c4)
	f.Mul(f, &l)
}

// refVerticalEval multiplies f in place by the vertical line x = x1
// (untwisted: xP - x1·w², i.e. components 1 and v of the C0 tower slot).
func refVerticalEval(f *ext.E12, x1 *ext.E2, p *curve.G1Affine) {
	var l ext.E12
	l.C0.B0.A0.Set(&p.X)
	l.C0.B1.Neg(x1)
	f.Mul(f, &l)
}

// refDoubleStep doubles the affine twist point t in place and multiplies f
// by the tangent line at t evaluated at p.
func refDoubleStep(f *ext.E12, t *curve.G2Affine, p *curve.G1Affine) {
	if t.Y.IsZero() {
		// 2t = infinity; the "tangent" degenerates to the vertical.
		refVerticalEval(f, &t.X, p)
		t.X.SetZero()
		t.Y.SetZero()
		return
	}
	// λ = 3x²/(2y)
	var num, den, lambda ext.E2
	num.Square(&t.X)
	var three ext.E2
	three.SetUint64(3)
	num.Mul(&num, &three)
	den.Double(&t.Y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	refLineEval(f, &lambda, &t.X, &t.Y, p)

	// x3 = λ² - 2x, y3 = λ(x - x3) - y
	var x3, y3 ext.E2
	x3.Square(&lambda)
	var twoX ext.E2
	twoX.Double(&t.X)
	x3.Sub(&x3, &twoX)
	y3.Sub(&t.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.Y)
	t.X.Set(&x3)
	t.Y.Set(&y3)
}

// refAddStep sets t = t + q (affine twist points) and multiplies f by the
// chord line through t and q evaluated at p.
func refAddStep(f *ext.E12, t *curve.G2Affine, q *curve.G2Affine, p *curve.G1Affine) {
	if q.IsInfinity() {
		return
	}
	if t.IsInfinity() {
		t.Set(q)
		return
	}
	if t.X.Equal(&q.X) {
		if t.Y.Equal(&q.Y) {
			refDoubleStep(f, t, p)
			return
		}
		// t = -q: vertical line, result infinity.
		refVerticalEval(f, &t.X, p)
		t.X.SetZero()
		t.Y.SetZero()
		return
	}
	// λ = (y2-y1)/(x2-x1)
	var num, den, lambda ext.E2
	num.Sub(&q.Y, &t.Y)
	den.Sub(&q.X, &t.X)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	refLineEval(f, &lambda, &t.X, &t.Y, p)

	var x3, y3 ext.E2
	x3.Square(&lambda)
	x3.Sub(&x3, &t.X)
	x3.Sub(&x3, &q.X)
	y3.Sub(&t.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.Y)
	t.X.Set(&x3)
	t.Y.Set(&y3)
}

// refMillerLoop computes the optimal ate Miller function f_{6x+2,Q}(P)
// multiplied by the two BN end-step lines. Infinity inputs yield 1.
func refMillerLoop(p *curve.G1Affine, q *curve.G2Affine) ext.E12 {
	var f ext.E12
	f.SetOne()
	if p.IsInfinity() || q.IsInfinity() {
		return f
	}

	t := *q
	negQ := *q
	negQ.Y.Neg(&negQ.Y)

	for i := 1; i < len(ateLoopNAF); i++ {
		f.Square(&f)
		refDoubleStep(&f, &t, p)
		switch ateLoopNAF[i] {
		case 1:
			refAddStep(&f, &t, q, p)
		case -1:
			refAddStep(&f, &t, &negQ, p)
		}
	}

	// BN end steps: add ψ(Q) and subtract ψ²(Q).
	var q1, q2 curve.G2Affine
	q1.Psi(q)
	q2.PsiSquare(q)
	q2.Y.Neg(&q2.Y)
	refAddStep(&f, &t, &q1, p)
	refAddStep(&f, &t, &q2, p)
	return f
}

// refFinalExponentiation raises the Miller-loop output to (p¹²-1)/r.
func refFinalExponentiation(f *ext.E12) ext.E12 {
	var out ext.E12
	if f.IsZero() {
		out.SetZero()
		return out
	}
	// Easy part: f^(p⁶-1) then ^(p²+1).
	var conj, inv ext.E12
	conj.Conjugate(f)
	inv.Inverse(f)
	out.Mul(&conj, &inv) // f^(p⁶-1)
	var frob2 ext.E12
	frob2.FrobeniusSquare(&out)
	out.Mul(&frob2, &out) // ^(p²+1)

	// Hard part: exponentiation by (p⁴-p²+1)/r, with generic F_p¹²
	// squarings so the oracle does not lean on CyclotomicSquare either.
	out.Exp(&out, &refHardExp)
	return out
}
