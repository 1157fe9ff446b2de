// Package ipp implements the inner-pairing-product substrate for
// SnarkPack-style proof aggregation (Bünz–Maller–Mishra–Tyagi–Vesely
// GIPA / TIPP / MIPP, as instantiated by Gailly–Maller–Nitulescu):
// a two-trapdoor structured reference string over BN254, pairing-based
// commitments to G1/G2 vectors, and the Fiat–Shamir transcript the
// aggregator and verifier share.
//
// The SRS holds power tables for two independent trapdoors a and b.
// For an aggregation of size n (a power of two ≤ MaxN) the prover's
// commitment keys are slices of those tables:
//
//	v1[i] = h^{a^i}        v2[i] = h^{b^i}        (G2, i < n)
//	w1[i] = g^{a^{n+i}}    w2[i] = g^{b^{n+i}}    (G1, i < n)
//
// so one SRS serves every aggregation size up to MaxN. The verifier
// needs only the generators and the degree-one powers (VerifierKey);
// the folded commitment keys are checked with KZG openings against it.
package ipp

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
)

// SRS is the aggregator's structured reference string: power tables for
// two independent trapdoors. The trapdoors themselves are toxic waste,
// discarded by NewSRS.
type SRS struct {
	// MaxN is the largest supported aggregation size (a power of two).
	MaxN int
	// G1A[i] = g^{a^i} and G1B[i] = g^{b^i}, i < 2·MaxN. The upper half
	// provides the w commitment keys and the KZG basis for the degree
	// ≤ 2n-1 w-key polynomial.
	G1A, G1B []curve.G1Affine
	// G2A[i] = h^{a^i} and G2B[i] = h^{b^i}, i < MaxN.
	G2A, G2B []curve.G2Affine
	// VK is the verifier's share.
	VK VerifierKey
}

// VerifierKey is the constant-size verifier share of an SRS: the two
// degree-one powers per trapdoor. Generators are the curve's fixed
// G1/G2 generators.
type VerifierKey struct {
	// GA = g^a, GB = g^b (G1).
	GA, GB curve.G1Affine
	// HA = h^a, HB = h^b (G2).
	HA, HB curve.G2Affine
}

// NewSRS runs the aggregation trusted setup for sizes up to maxN
// (rounded up to a power of two, minimum 1). rng supplies the two
// trapdoors; they never leave this function.
func NewSRS(maxN int, rng io.Reader) (*SRS, error) {
	if maxN < 1 {
		return nil, errors.New("ipp: SRS size must be positive")
	}
	n := NextPow2(maxN)

	var a, b fr.Element
	if _, err := a.SetRandom(rng); err != nil {
		return nil, fmt.Errorf("ipp: drawing trapdoor: %w", err)
	}
	if _, err := b.SetRandom(rng); err != nil {
		return nil, fmt.Errorf("ipp: drawing trapdoor: %w", err)
	}
	if a.IsZero() || b.IsZero() || a.Equal(&b) {
		// Unreachable for a real entropy source; fail closed anyway.
		return nil, errors.New("ipp: degenerate trapdoors")
	}

	powersA := PowerSeries(&a, 2*n)
	powersB := PowerSeries(&b, 2*n)

	g1 := curve.G1Generator()
	g2 := curve.G2Generator()
	t1 := curve.NewG1FixedBaseTable(&g1)
	t2 := curve.NewG2FixedBaseTable(&g2)

	srs := &SRS{
		MaxN: n,
		G1A:  t1.MulBatch(powersA),
		G1B:  t1.MulBatch(powersB),
		G2A:  t2.MulBatch(powersA[:n]),
		G2B:  t2.MulBatch(powersB[:n]),
	}
	srs.VK = VerifierKey{
		GA: srs.G1A[1], GB: srs.G1B[1],
		HA: srs.G2A[1], HB: srs.G2B[1],
	}
	return srs, nil
}

// Keys returns the four commitment-key slices for an aggregation of
// size n (a power of two ≤ MaxN). The slices alias the SRS tables and
// must not be mutated.
func (s *SRS) Keys(n int) (v1, v2 []curve.G2Affine, w1, w2 []curve.G1Affine, err error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, nil, nil, nil, fmt.Errorf("ipp: aggregation size %d is not a power of two", n)
	}
	if n > s.MaxN {
		return nil, nil, nil, nil, fmt.Errorf("ipp: aggregation size %d exceeds SRS capacity %d", n, s.MaxN)
	}
	return s.G2A[:n], s.G2B[:n], s.G1A[n : 2*n], s.G1B[n : 2*n], nil
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// PowerSeries returns [1, x, x², …, x^{k-1}]: the SRS's trapdoor powers
// here, and SnarkPack's challenge powers in groth16.
func PowerSeries(x *fr.Element, k int) []fr.Element {
	out := make([]fr.Element, k)
	out[0].SetOne()
	for i := 1; i < k; i++ {
		out[i].Mul(&out[i-1], x)
	}
	return out
}
