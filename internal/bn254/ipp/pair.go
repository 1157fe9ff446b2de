package ipp

import (
	"slices"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/par"
)

// maxChunkPairs bounds the pairs one shared Miller accumulator takes: at
// 32 the accumulator's squarings are already < 3 % of a chunk's work,
// and a chunk's line tables (≈ 12 kB a pair) stay within cache reach
// however long the product is.
const maxChunkPairs = 32

// millerProduct computes Π MillerLoop(ps[i], qs[i]) in chunks fanned out
// over the worker pool, each chunk one pairing.MillerProduct — one
// accumulator squared once per step for all of the chunk's pairs. The
// product is NOT reduced: PairProduct applies the one final
// exponentiation.
func millerProduct(ps []curve.G1Affine, qs []curve.G2Affine) ext.E12 {
	if len(ps) != len(qs) {
		panic("ipp: mismatched pair counts")
	}
	n := len(ps)
	size := min(max((n+par.Workers()-1)/par.Workers(), 1), maxChunkPairs)
	fs := make([]ext.E12, (n+size-1)/size)
	par.Each(len(fs), func(c int) {
		lo := c * size
		hi := min(lo+size, n)
		pp := make([]*curve.G1Affine, hi-lo)
		qq := make([]*curve.G2Affine, hi-lo)
		for i := range pp {
			pp[i], qq[i] = &ps[lo+i], &qs[lo+i]
		}
		fs[c] = pairing.MillerProduct(pp, qq, nil)
	})
	var acc ext.E12
	acc.SetOne()
	for i := range fs {
		acc.Mul(&acc, &fs[i])
	}
	return acc
}

// PairProduct computes Π e(ps[i], qs[i]) with one shared final
// exponentiation — the pairing commitment to a (G1, G2) vector pair.
func PairProduct(ps []curve.G1Affine, qs []curve.G2Affine) ext.E12 {
	ml := millerProduct(ps, qs)
	return pairing.FinalExponentiation(&ml)
}

// PairProduct2 computes Π e(p1[i], q1[i]) · Π e(p2[i], q2[i]) as one
// product — the double-trapdoor commitment shape
// T = Π e(A_i, v_i) · Π e(w_i, B_i).
func PairProduct2(p1 []curve.G1Affine, q1 []curve.G2Affine, p2 []curve.G1Affine, q2 []curve.G2Affine) ext.E12 {
	if len(p1) != len(q1) || len(p2) != len(q2) {
		panic("ipp: mismatched pair counts")
	}
	return PairProduct(slices.Concat(p1, p2), slices.Concat(q1, q2))
}
