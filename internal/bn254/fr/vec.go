package fr

import (
	"math/big"

	"zkrownn/internal/bn254/lanes"
)

// Slice-level kernels used by the FFT levels and the Groth16 quotient
// loops, one place for the hot paths to pick up vector backends. Where
// the CPU has AVX-512 IFMA (lanes.SupportIFMA), MulVecInto,
// ScalarMulVecInto and TwiddleButterflyVec run their whole blocks of
// eight elements on the lanes (lanes/fr.go), eight products at a time;
// the tail past the last block, and every CPU without IFMA, takes the
// scalar product: one MULX/ADX assembly call per vector on amd64 with
// ADX, the generic core elsewhere. Every backend returns the same
// canonical elements, bit for bit.

// laneConsts is r's constant block, the lane kernels' modulus. It parses
// ModulusStr itself: package variables are set before the init function
// that sets qModulus runs.
var laneConsts = func() *lanes.Consts {
	m, _ := new(big.Int).SetString(ModulusStr, 10)
	return lanes.NewConsts(m)
}()

// laneLen returns how many of n elements the lanes take: the whole
// blocks, or none without IFMA.
func laneLen(n int) int {
	if !lanes.SupportIFMA {
		return 0
	}
	return n &^ (lanes.Width - 1)
}

// MulVecInto sets dst[i] = a[i]·b[i] for every i. All three slices must
// have the same length; dst may alias a and/or b element-wise.
func MulVecInto(dst, a, b []Element) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("fr.MulVecInto: length mismatch")
	}
	if nl := laneLen(len(dst)); nl > 0 {
		lanes.FrMul(laneConsts, &dst[0][0], &a[0][0], &b[0][0], 1, nl/lanes.Width)
		dst, a, b = dst[nl:], a[nl:], b[nl:]
	}
	if len(dst) == 0 {
		return
	}
	mulVecBackend(dst, a, b)
}

// ScalarMulVecInto sets dst[i] = a[i]·s for every i. dst may alias a.
func ScalarMulVecInto(dst, a []Element, s *Element) {
	if len(a) != len(dst) {
		panic("fr.ScalarMulVecInto: length mismatch")
	}
	if nl := laneLen(len(dst)); nl > 0 {
		var copies [lanes.Width]Element
		for i := range copies {
			copies[i] = *s
		}
		lanes.FrMul(laneConsts, &dst[0][0], &a[0][0], &copies[0][0], 0, nl/lanes.Width)
		dst, a = dst[nl:], a[nl:]
	}
	a = a[:len(dst)]
	for i := range dst {
		dst[i].Mul(&a[i], s)
	}
}

// SubScalarMulVecInto sets dst[i] = (a[i] − b[i])·s for every i — the
// (A·B − C)·Z⁻¹ step of the quotient pipeline: the differences, then
// their products in ScalarMulVecInto. dst may alias a and/or b
// element-wise.
func SubScalarMulVecInto(dst, a, b []Element, s *Element) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("fr.SubScalarMulVecInto: length mismatch")
	}
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i].Sub(&a[i], &b[i])
	}
	ScalarMulVecInto(dst, dst, s)
}

// Butterfly sets (a, b) = (a+b, a−b) in place — the radix-2 building
// block of the FFT levels.
func Butterfly(a, b *Element) {
	t := *a
	a.Add(a, b)
	b.Sub(&t, b)
}

// ButterflyVec applies Butterfly pairwise: (a[i], b[i]) =
// (a[i]+b[i], a[i]−b[i]). The slices must have equal length and must
// not overlap.
func ButterflyVec(a, b []Element) {
	if len(a) != len(b) {
		panic("fr.ButterflyVec: length mismatch")
	}
	b = b[:len(a)]
	for i := range a {
		Butterfly(&a[i], &b[i])
	}
}

// TwiddleButterflyVec applies the decimation-in-time butterfly with
// per-lane twiddles: t = b[i]·tw[i]; (a[i], b[i]) = (a[i]+t, a[i]−t).
// All slices must have equal length; a and b must not overlap.
func TwiddleButterflyVec(a, b, tw []Element) {
	if len(a) != len(b) || len(tw) != len(a) {
		panic("fr.TwiddleButterflyVec: length mismatch")
	}
	if nl := laneLen(len(a)); nl > 0 {
		lanes.FrButterfly(laneConsts, &a[0][0], &b[0][0], &tw[0][0], nl/lanes.Width)
		a, b, tw = a[nl:], b[nl:], tw[nl:]
	}
	if len(a) == 0 {
		return
	}
	mulVecBackend(b, b, tw)
	ButterflyVec(a, b)
}
