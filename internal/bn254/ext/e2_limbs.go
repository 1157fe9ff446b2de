package ext

import (
	"math/bits"

	"zkrownn/internal/bn254/fp"
)

// F_p add and sub for the F_p² kernels, without a call. fp.Add and
// fp.Sub are branch-free but too large for the compiler to inline, and
// in an F_p² product the call costs as much as the arithmetic. So a
// modular add or sub is spelt here as a chain of steps that each inline,
// on the raw Montgomery limbs and p's limbs:
//
//	z = x + y mod p:  z = addBackP(subModulus(limbAdd(&x, &y)))
//	z = x - y mod p:  z = addBackP(limbSub(&x, &y))
//
// Every step is a straight carry chain; the only correction, adding p
// back, is masked by a borrow rather than branched on. Operands are
// canonical (< p), as every fp.Element is, so x + y < 2p < 2²⁵⁶ needs no
// fifth limb.

// pLimbs holds p's little-endian limbs, from fp's constant block. It is
// a package-level initializer, not an init(): frobenius.go's init()
// already multiplies in F_p², and package variables are all set before
// any init() runs.
var pLimbs = fp.Mont().Q()

// limbAdd returns the limbs of x + y, unreduced.
func limbAdd(x, y *fp.Element) (t0, t1, t2, t3 uint64) {
	var c uint64
	t0, c = bits.Add64(x[0], y[0], 0)
	t1, c = bits.Add64(x[1], y[1], c)
	t2, c = bits.Add64(x[2], y[2], c)
	t3, _ = bits.Add64(x[3], y[3], c)
	return
}

// limbSub returns the limbs of x - y mod 2²⁵⁶ and the borrow out (1 when
// x < y).
func limbSub(x, y *fp.Element) (t0, t1, t2, t3, b uint64) {
	t0, b = bits.Sub64(x[0], y[0], 0)
	t1, b = bits.Sub64(x[1], y[1], b)
	t2, b = bits.Sub64(x[2], y[2], b)
	t3, b = bits.Sub64(x[3], y[3], b)
	return
}

// subModulus returns t - p mod 2²⁵⁶ and the borrow out (1 when t < p).
func subModulus(t0, t1, t2, t3 uint64) (u0, u1, u2, u3, b uint64) {
	u0, b = bits.Sub64(t0, pLimbs[0], 0)
	u1, b = bits.Sub64(t1, pLimbs[1], b)
	u2, b = bits.Sub64(t2, pLimbs[2], b)
	u3, b = bits.Sub64(t3, pLimbs[3], b)
	return
}

// addBackP returns t + p·b mod 2²⁵⁶ for a borrow b ∈ {0, 1}: it undoes
// a subtraction that went below zero.
func addBackP(t0, t1, t2, t3, b uint64) (z fp.Element) {
	m := -b
	var c uint64
	z[0], c = bits.Add64(t0, pLimbs[0]&m, 0)
	z[1], c = bits.Add64(t1, pLimbs[1]&m, c)
	z[2], c = bits.Add64(t2, pLimbs[2]&m, c)
	z[3], _ = bits.Add64(t3, pLimbs[3]&m, c)
	return z
}

// addP sets z = x + y and subP z = x - y in F_p²: each coordinate-wise
// pair of F_p operations is one leaf call. z may alias x and/or y.
func addP(z, x, y *E2) {
	z.A0 = addBackP(subModulus(limbAdd(&x.A0, &y.A0)))
	z.A1 = addBackP(subModulus(limbAdd(&x.A1, &y.A1)))
}

func subP(z, x, y *E2) {
	z.A0 = addBackP(limbSub(&x.A0, &y.A0))
	z.A1 = addBackP(limbSub(&x.A1, &y.A1))
}
