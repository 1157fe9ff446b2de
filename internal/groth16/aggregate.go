package groth16

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// SnarkPack-style aggregation (Gailly–Maller–Nitulescu over the
// Bünz et al. inner-pairing-product argument): N Groth16 proofs under
// ONE verifying key fold into a single O(log N) AggregateProof whose
// verification costs one pairing-product check plus O(log N) target-
// group work — a registry auditing N ownership claims checks one
// object instead of N proofs.
//
// Protocol shape (TIPP for the e(Aᵢ,Bᵢ) products, MIPP for Σ rⁱ·Cᵢ,
// fused so both share one transcript and one set of commitment keys):
//
//  1. Commit to the proof vectors under the two-trapdoor SRS keys:
//     T_AB = Πe(Aᵢ,v1ᵢ)·Πe(w1ᵢ,Bᵢ), U_AB likewise under (v2,w2),
//     T_C = Πe(Cᵢ,v1ᵢ), U_C = Πe(Cᵢ,v2ᵢ).
//  2. Draw the Fiat–Shamir challenge r binding vk, instance, and the
//     commitments; rescale Aᵢ ← rⁱ·Aᵢ, Cᵢ ← rⁱ·Cᵢ and the v-keys by
//     r⁻ⁱ (the commitments are unchanged: the scalings cancel inside
//     each pairing), and send Z_AB = Πe(Aᵢ,Bᵢ)^rⁱ, Z_C = Σ rⁱ·Cᵢ.
//  3. log N GIPA halving rounds: cross terms per round seed a
//     challenge x, vectors fold as A←A_L+x·A_R, B←B_L+x⁻¹·B_R (keys
//     fold opposite their vectors).
//  4. The surviving size-1 vectors are checked directly; the folded
//     commitment keys are bound to the SRS by KZG openings of their
//     structured polynomials at a transcript point z.
//  5. The original Z_AB, Z_C satisfy the r-powered sum of the N
//     Groth16 equations: Z_AB = e(α,β)^Σrⁱ · e(Σrⁱ·ICᵢ, γ) · e(Z_C, δ).
//
// Soundness of the whole object reduces to the inner-pairing-product
// assumptions on the SRS plus standard Groth16 soundness; a registry
// accepts an aggregate exactly when it would have accepted the batch.

// AggregateProof is the O(log N) aggregation artifact. Count is the
// real (pre-padding) number of proofs; sets whose size is not a power
// of two are padded by repeating the last proof, which the verifier
// reproduces from the public inputs alone.
type AggregateProof struct {
	Count uint32

	// Vector commitments (bound before the challenge r).
	TAB, UAB, TC, UC GTElement
	// Aggregated products under r: Z_AB = Πe(Aᵢ,Bᵢ)^rⁱ, Z_C = Σrⁱ·Cᵢ.
	ZAB GTElement
	ZC  curve.G1Affine

	// One entry per GIPA halving round (log₂ of the padded size).
	Rounds []AggregateRound

	// The fully folded vectors and commitment keys.
	FinalA, FinalC   curve.G1Affine
	FinalB           curve.G2Affine
	FinalV1, FinalV2 curve.G2Affine
	FinalW1, FinalW2 curve.G1Affine

	// KZG openings binding the folded keys to the SRS at the
	// transcript point z.
	PiV1, PiV2 curve.G2Affine
	PiW1, PiW2 curve.G1Affine
}

// AggregateRound carries one GIPA round's cross terms.
type AggregateRound struct {
	ZL, ZR             GTElement // TIPP product cross terms
	TL, TR, UL, UR     GTElement // TIPP commitment cross terms
	TCL, TCR, UCL, UCR GTElement // MIPP commitment cross terms
	ZCL, ZCR           curve.G1Affine
}

const aggregateLabel = "zkrownn/aggregate/v1"

// ErrAggregateSize rejects proof sets larger than the SRS supports.
var ErrAggregateSize = errors.New("groth16: proof set exceeds aggregation SRS capacity")

// AggregateProofs folds N same-VK proofs into one AggregateProof under
// the given aggregation SRS. The set is padded to a power of two by
// repeating the last proof; padding is recomputable by the verifier and
// sound (a duplicated valid proof satisfies its own equation).
func AggregateProofs(srs *ipp.SRS, vk *VerifyingKey, proofs []*Proof, publicInputs [][]fr.Element) (*AggregateProof, error) {
	N := len(proofs)
	if N == 0 {
		return nil, errors.New("groth16: empty aggregation set")
	}
	if N != len(publicInputs) {
		return nil, fmt.Errorf("groth16: %d proofs but %d public-input sets", N, len(publicInputs))
	}
	for i, pub := range publicInputs {
		if len(pub) != len(vk.IC)-1 {
			return nil, fmt.Errorf("groth16: proof %d has %d public inputs, vk expects %d",
				i, len(pub), len(vk.IC)-1)
		}
	}
	n := ipp.NextPow2(N)
	if n > srs.MaxN {
		return nil, fmt.Errorf("%w: %d proofs pad to %d > %d", ErrAggregateSize, N, n, srs.MaxN)
	}
	v1SRS, v2SRS, w1SRS, w2SRS, err := srs.Keys(n)
	if err != nil {
		return nil, err
	}

	// Padded working vectors.
	A := make([]curve.G1Affine, n)
	B := make([]curve.G2Affine, n)
	C := make([]curve.G1Affine, n)
	for i := 0; i < n; i++ {
		p := proofs[min(i, N-1)]
		A[i], B[i], C[i] = p.Ar, p.Bs, p.Krs
	}
	w1 := append([]curve.G1Affine(nil), w1SRS...)
	w2 := append([]curve.G1Affine(nil), w2SRS...)

	agg := &AggregateProof{Count: uint32(N)}

	// Commitments under the unrescaled keys.
	agg.TAB = ipp.PairProduct2(A, v1SRS, w1, B)
	agg.UAB = ipp.PairProduct2(A, v2SRS, w2, B)
	agg.TC = ipp.PairProduct(C, v1SRS)
	agg.UC = ipp.PairProduct(C, v2SRS)

	t := newAggregateTranscript(vk, uint32(N), n, publicInputs)
	t.AppendGT("t-ab", &agg.TAB)
	t.AppendGT("u-ab", &agg.UAB)
	t.AppendGT("t-c", &agg.TC)
	t.AppendGT("u-c", &agg.UC)
	r := t.Challenge("r")
	var rInv fr.Element
	rInv.Inverse(&r)

	// Rescale: Aᵢ ← rⁱAᵢ, Cᵢ ← rⁱCᵢ, v-keys by r⁻ⁱ. The commitments
	// above are unchanged under this rescaling, so GIPA can run on the
	// rescaled vectors against the same T/U values.
	rPow := ipp.PowerSeries(&r, n)
	rInvPow := ipp.PowerSeries(&rInv, n)
	A = aggG1.scale(A, rPow)
	C = aggG1.scale(C, rPow)
	v1 := aggG2.scale(v1SRS, rInvPow)
	v2 := aggG2.scale(v2SRS, rInvPow)

	agg.ZAB = ipp.PairProduct(A, B)
	var zc curve.G1Jac
	zc.SetInfinity()
	for i := range C {
		zc.AddMixed(&C[i])
	}
	agg.ZC.FromJacobian(&zc)
	t.AppendGT("z-ab", &agg.ZAB)
	t.AppendG1("z-c", &agg.ZC)

	// GIPA halving rounds.
	var (
		xs []fr.Element
		y  fr.Element
	)
	y.SetOne()
	for m := n; m > 1; m /= 2 {
		half := m / 2
		var rd AggregateRound
		rd.ZL = ipp.PairProduct(A[:half], B[half:m])
		rd.ZR = ipp.PairProduct(A[half:m], B[:half])
		rd.TL = ipp.PairProduct2(A[:half], v1[half:m], w1[:half], B[half:m])
		rd.TR = ipp.PairProduct2(A[half:m], v1[:half], w1[half:m], B[:half])
		rd.UL = ipp.PairProduct2(A[:half], v2[half:m], w2[:half], B[half:m])
		rd.UR = ipp.PairProduct2(A[half:m], v2[:half], w2[half:m], B[:half])
		rd.TCL = ipp.PairProduct(C[:half], v1[half:m])
		rd.TCR = ipp.PairProduct(C[half:m], v1[:half])
		rd.UCL = ipp.PairProduct(C[:half], v2[half:m])
		rd.UCR = ipp.PairProduct(C[half:m], v2[:half])
		rd.ZCL = sumScaledG1(C[:half], &y)
		rd.ZCR = sumScaledG1(C[half:m], &y)

		appendRound(t, &rd)
		x := t.Challenge("x")
		var xInv fr.Element
		xInv.Inverse(&x)

		A = aggG1.fold(A[:m], &x)
		B = aggG2.fold(B[:m], &xInv)
		C = aggG1.fold(C[:m], &x)
		v1 = aggG2.fold(v1[:m], &xInv)
		v2 = aggG2.fold(v2[:m], &xInv)
		w1 = aggG1.fold(w1[:m], &x)
		w2 = aggG1.fold(w2[:m], &x)
		var onePlusXInv fr.Element
		onePlusXInv.SetOne()
		onePlusXInv.Add(&onePlusXInv, &xInv)
		y.Mul(&y, &onePlusXInv)

		xs = append(xs, x)
		agg.Rounds = append(agg.Rounds, rd)
	}

	agg.FinalA, agg.FinalB, agg.FinalC = A[0], B[0], C[0]
	agg.FinalV1, agg.FinalV2 = v1[0], v2[0]
	agg.FinalW1, agg.FinalW2 = w1[0], w2[0]

	appendFinals(t, agg)
	z := t.Challenge("z")

	// KZG openings of the folded-key polynomials at z.
	fCoeffs, pCoeffs := finalKeyPolys(n, xs, &rInv)
	agg.PiV1 = aggG2.kzgOpen(srs.G2A, fCoeffs, &z)
	agg.PiV2 = aggG2.kzgOpen(srs.G2B, fCoeffs, &z)
	agg.PiW1 = aggG1.kzgOpen(srs.G1A, pCoeffs, &z)
	agg.PiW2 = aggG1.kzgOpen(srs.G1B, pCoeffs, &z)
	return agg, nil
}

// VerifyAggregate checks an AggregateProof against the SRS verifier key
// and the same per-proof public inputs the individual verifications
// would have used. It accepts exactly the proof sets BatchVerify
// accepts (up to the challenge soundness error).
func VerifyAggregate(svk *ipp.VerifierKey, vk *VerifyingKey, agg *AggregateProof, publicInputs [][]fr.Element) error {
	N := int(agg.Count)
	if N < 1 {
		return errors.New("groth16: aggregate proof has zero count")
	}
	if N != len(publicInputs) {
		return fmt.Errorf("groth16: aggregate covers %d proofs but %d public-input sets given", N, len(publicInputs))
	}
	for i, pub := range publicInputs {
		if len(pub) != len(vk.IC)-1 {
			return fmt.Errorf("groth16: instance %d has %d public inputs, vk expects %d",
				i, len(pub), len(vk.IC)-1)
		}
	}
	n := ipp.NextPow2(N)
	k := bits.TrailingZeros(uint(n))
	if len(agg.Rounds) != k {
		return fmt.Errorf("groth16: aggregate has %d rounds, size %d needs %d", len(agg.Rounds), n, k)
	}

	// Replay the transcript.
	t := newAggregateTranscript(vk, agg.Count, n, publicInputs)
	t.AppendGT("t-ab", &agg.TAB)
	t.AppendGT("u-ab", &agg.UAB)
	t.AppendGT("t-c", &agg.TC)
	t.AppendGT("u-c", &agg.UC)
	r := t.Challenge("r")
	var rInv fr.Element
	rInv.Inverse(&r)
	t.AppendGT("z-ab", &agg.ZAB)
	t.AppendG1("z-c", &agg.ZC)

	// Fold the commitments through the rounds:
	// V' = V · L^{x⁻¹} · R^{x} (and the G1 analogue for Z_C).
	// Generic (non-cyclotomic) exponentiation throughout: round
	// elements are prover-supplied and unchecked, so the cyclotomic
	// shortcuts' subgroup assumptions do not hold.
	zab, tab, uab, tc, uc := agg.ZAB, agg.TAB, agg.UAB, agg.TC, agg.UC
	var zcJac curve.G1Jac
	zcJac.FromAffine(&agg.ZC)
	var y fr.Element
	y.SetOne()
	xs := make([]fr.Element, k)
	for j := range agg.Rounds {
		rd := &agg.Rounds[j]
		appendRound(t, rd)
		x := t.Challenge("x")
		var xInv fr.Element
		xInv.Inverse(&x)
		xs[j] = x
		xBig, xInvBig := x.ToBigInt(), xInv.ToBigInt()

		foldGT(&zab, &rd.ZL, &rd.ZR, xInvBig, xBig)
		foldGT(&tab, &rd.TL, &rd.TR, xInvBig, xBig)
		foldGT(&uab, &rd.UL, &rd.UR, xInvBig, xBig)
		foldGT(&tc, &rd.TCL, &rd.TCR, xInvBig, xBig)
		foldGT(&uc, &rd.UCL, &rd.UCR, xInvBig, xBig)

		var p curve.G1Jac
		p.FromAffine(&rd.ZCL)
		p.ScalarMul(&p, &xInv)
		zcJac.AddAssign(&p)
		p.FromAffine(&rd.ZCR)
		p.ScalarMul(&p, &x)
		zcJac.AddAssign(&p)

		var onePlusXInv fr.Element
		onePlusXInv.SetOne()
		onePlusXInv.Add(&onePlusXInv, &xInv)
		y.Mul(&y, &onePlusXInv)
	}
	appendFinals(t, agg)
	z := t.Challenge("z")

	// Folded-vector openings: the size-1 vectors must reproduce the
	// folded commitments.
	oneG1 := func(p curve.G1Affine) []curve.G1Affine { return []curve.G1Affine{p} }
	oneG2 := func(p curve.G2Affine) []curve.G2Affine { return []curve.G2Affine{p} }
	if got := ipp.PairProduct2(oneG1(agg.FinalA), oneG2(agg.FinalV1), oneG1(agg.FinalW1), oneG2(agg.FinalB)); !got.Equal(&tab) {
		return errors.New("groth16: aggregate verification failed (T_AB opening)")
	}
	if got := ipp.PairProduct2(oneG1(agg.FinalA), oneG2(agg.FinalV2), oneG1(agg.FinalW2), oneG2(agg.FinalB)); !got.Equal(&uab) {
		return errors.New("groth16: aggregate verification failed (U_AB opening)")
	}
	if got := pairing.Pair(&agg.FinalA, &agg.FinalB); !got.Equal(&zab) {
		return errors.New("groth16: aggregate verification failed (Z_AB opening)")
	}
	if got := pairing.Pair(&agg.FinalC, &agg.FinalV1); !got.Equal(&tc) {
		return errors.New("groth16: aggregate verification failed (T_C opening)")
	}
	if got := pairing.Pair(&agg.FinalC, &agg.FinalV2); !got.Equal(&uc) {
		return errors.New("groth16: aggregate verification failed (U_C opening)")
	}
	var zcWant curve.G1Jac
	zcWant.FromAffine(&agg.FinalC)
	zcWant.ScalarMul(&zcWant, &y)
	var zcGot, zcWantAff curve.G1Affine
	zcGot.FromJacobian(&zcJac)
	zcWantAff.FromJacobian(&zcWant)
	if !zcGot.Equal(&zcWantAff) {
		return errors.New("groth16: aggregate verification failed (Z_C opening)")
	}

	// KZG checks bind the folded keys to the SRS. The folded-key
	// polynomials evaluate in O(log n):
	//   f_v(z) = Π (1 + xⱼ⁻¹·(z/r)^{dⱼ}),  p_w(z) = zⁿ·Π (1 + xⱼ·z^{dⱼ}).
	fz, pz := evalFinalKeyPolys(n, xs, &rInv, &z)
	g1 := curve.G1GeneratorAffine()
	g2 := curve.G2GeneratorAffine()
	if !kzgCheckG2(&g1, &svk.GA, &agg.FinalV1, &agg.PiV1, &fz, &z) {
		return errors.New("groth16: aggregate verification failed (v1 key opening)")
	}
	if !kzgCheckG2(&g1, &svk.GB, &agg.FinalV2, &agg.PiV2, &fz, &z) {
		return errors.New("groth16: aggregate verification failed (v2 key opening)")
	}
	if !kzgCheckG1(&g2, &svk.HA, &agg.FinalW1, &agg.PiW1, &pz, &z) {
		return errors.New("groth16: aggregate verification failed (w1 key opening)")
	}
	if !kzgCheckG1(&g2, &svk.HB, &agg.FinalW2, &agg.PiW2, &pz, &z) {
		return errors.New("groth16: aggregate verification failed (w2 key opening)")
	}

	// The aggregated Groth16 relation over the ORIGINAL (unfolded)
	// Z_AB, Z_C: Z_AB = e(α,β)^Σrⁱ · e(Σrⁱ·ICᵢ, γ) · e(Z_C, δ).
	rPow := ipp.PowerSeries(&r, n)
	var sumR fr.Element
	icScalars := make([]fr.Element, len(vk.IC)-1)
	for i := 0; i < n; i++ {
		sumR.Add(&sumR, &rPow[i])
		pub := publicInputs[min(i, N-1)]
		for j := range icScalars {
			var tmp fr.Element
			tmp.Mul(&rPow[i], &pub[j])
			icScalars[j].Add(&icScalars[j], &tmp)
		}
	}
	var icAgg curve.G1Jac
	icAgg.SetInfinity()
	if len(icScalars) > 0 {
		icAgg = curve.MultiExpG1(vk.IC[1:], icScalars)
	}
	var ic0 curve.G1Jac
	ic0.FromAffine(&vk.IC[0])
	ic0.ScalarMul(&ic0, &sumR)
	icAgg.AddAssign(&ic0)
	var icAff curve.G1Affine
	icAff.FromJacobian(&icAgg)

	var alphaBeta ext.E12
	alphaBeta.CyclotomicExp(vk.alphaBeta(), sumR.ToBigInt())
	var zabInv ext.E12
	zabInv.Inverse(&agg.ZAB)
	alphaBeta.Mul(&alphaBeta, &zabInv)
	if !pairing.PairingCheckLines(
		[]*curve.G1Affine{&icAff, &agg.ZC},
		[]*curve.G2Affine{&vk.GammaG2, &vk.DeltaG2},
		[]*pairing.Lines{vk.gammaLines, vk.deltaLines},
		&alphaBeta,
	) {
		return errors.New("groth16: aggregate verification failed (Groth16 relation)")
	}
	return nil
}

// newAggregateTranscript binds the context every challenge depends on:
// the verifying key, the real and padded sizes, and every instance.
func newAggregateTranscript(vk *VerifyingKey, count uint32, n int, publicInputs [][]fr.Element) *ipp.Transcript {
	t := ipp.NewTranscript(aggregateLabel)
	h := sha256.New()
	if _, err := vk.WriteTo(h); err != nil {
		// Hash-writer never errors; keep the transcript total regardless.
		panic(err)
	}
	t.AppendBytes("vk", h.Sum(nil))
	t.AppendUint32("count", count)
	t.AppendUint32("n", uint32(n))
	for _, pub := range publicInputs {
		for i := range pub {
			t.AppendFr("pub", &pub[i])
		}
	}
	return t
}

func appendRound(t *ipp.Transcript, rd *AggregateRound) {
	t.AppendGT("z-l", &rd.ZL)
	t.AppendGT("z-r", &rd.ZR)
	t.AppendGT("t-l", &rd.TL)
	t.AppendGT("t-r", &rd.TR)
	t.AppendGT("u-l", &rd.UL)
	t.AppendGT("u-r", &rd.UR)
	t.AppendGT("tc-l", &rd.TCL)
	t.AppendGT("tc-r", &rd.TCR)
	t.AppendGT("uc-l", &rd.UCL)
	t.AppendGT("uc-r", &rd.UCR)
	t.AppendG1("zc-l", &rd.ZCL)
	t.AppendG1("zc-r", &rd.ZCR)
}

func appendFinals(t *ipp.Transcript, agg *AggregateProof) {
	t.AppendG1("final-a", &agg.FinalA)
	t.AppendG2("final-b", &agg.FinalB)
	t.AppendG1("final-c", &agg.FinalC)
	t.AppendG2("final-v1", &agg.FinalV1)
	t.AppendG2("final-v2", &agg.FinalV2)
	t.AppendG1("final-w1", &agg.FinalW1)
	t.AppendG1("final-w2", &agg.FinalW2)
}

// foldGT folds one commitment through a round: v ← v · L^eL · R^eR.
func foldGT(v, l, r *ext.E12, eL, eR *big.Int) {
	var le, re ext.E12
	le.Exp(l, eL)
	re.Exp(r, eR)
	v.Mul(v, &le)
	v.Mul(v, &re)
}

// aggGroup binds SnarkPack's vector arithmetic, written once over
// curve.Jacobian, to one group's multi-exponentiation and batch
// normalization.
type aggGroup[A, J any, P curve.Jacobian[A, J]] struct {
	multiExp func(points []A, scalars []fr.Element, sc ...obs.Scope) J
	toAffine func(points []J) []A
}

var (
	aggG1 = aggGroup[curve.G1Affine, curve.G1Jac, *curve.G1Jac]{curve.MultiExpG1, curve.BatchJacToAffineG1}
	aggG2 = aggGroup[curve.G2Affine, curve.G2Jac, *curve.G2Jac]{curve.MultiExpG2, curve.BatchJacToAffineG2}
)

// scale returns out[i] = s[i]·v[i]. Each product runs in a point of its
// own, not in place in jac, whose neighbouring slots belong to other
// workers.
func (g aggGroup[A, J, P]) scale(v []A, s []fr.Element) []A {
	jac := make([]J, len(v))
	par.Each(len(v), func(i int) {
		p := P(new(J))
		p.FromAffine(&v[i])
		jac[i] = *p.ScalarMul(p, &s[i])
	})
	return g.toAffine(jac)
}

// fold halves a vector: out[i] = v[i] + x·v[half+i].
func (g aggGroup[A, J, P]) fold(v []A, x *fr.Element) []A {
	half := len(v) / 2
	jac := make([]J, half)
	par.Each(half, func(i int) {
		p := P(new(J))
		p.FromAffine(&v[half+i])
		p.ScalarMul(p, x)
		jac[i] = *p.AddMixed(&v[i])
	})
	return g.toAffine(jac)
}

// kzgOpen produces the opening g^{q(τ)} of the polynomial with the given
// coefficients at z, over the given trapdoor-power basis.
func (g aggGroup[A, J, P]) kzgOpen(powers []A, coeffs []fr.Element, z *fr.Element) A {
	q, _ := synthDiv(coeffs, z)
	if len(q) == 0 {
		var out A
		return out // constant polynomial: zero quotient, infinity opening
	}
	return g.toAffine([]J{g.multiExp(powers[:len(q)], q)})[0]
}

// sumScaledG1 returns s·Σvᵢ.
func sumScaledG1(v []curve.G1Affine, s *fr.Element) curve.G1Affine {
	var acc curve.G1Jac
	acc.SetInfinity()
	for i := range v {
		acc.AddMixed(&v[i])
	}
	acc.ScalarMul(&acc, s)
	var out curve.G1Affine
	out.FromJacobian(&acc)
	return out
}

// finalKeyPolys expands the coefficient vectors of the folded-key
// polynomials. With dⱼ = n/2^{j+1} for round j (0-based):
//
//	f_v(X) = Π (1 + xⱼ⁻¹·r⁻ᵈʲ·Xᵈʲ)   (degree n-1, the v-key poly)
//	p_w(X) = Xⁿ·Π (1 + xⱼ·Xᵈʲ)       (degree 2n-1, the w-key poly)
func finalKeyPolys(n int, xs []fr.Element, rInv *fr.Element) (fv, pw []fr.Element) {
	k := len(xs)
	cv := make([]fr.Element, k)
	cw := make([]fr.Element, k)
	ds := make([]int, k)
	rInvPow := ipp.PowerSeries(rInv, n)
	for j := 0; j < k; j++ {
		d := n >> (j + 1)
		ds[j] = d
		var xInv fr.Element
		xInv.Inverse(&xs[j])
		cv[j].Mul(&xInv, &rInvPow[d])
		cw[j] = xs[j]
	}
	fv = expandBinomialProduct(cv, ds, n)
	tail := expandBinomialProduct(cw, ds, n)
	pw = make([]fr.Element, 2*n)
	copy(pw[n:], tail) // the Xⁿ shift
	return fv, pw
}

// expandBinomialProduct expands Π (1 + cⱼ·X^{dⱼ}) into dense
// coefficients of length size (Σdⱼ = size-1).
func expandBinomialProduct(cs []fr.Element, ds []int, size int) []fr.Element {
	coeffs := make([]fr.Element, size)
	coeffs[0].SetOne()
	deg := 0
	for j := range cs {
		d := ds[j]
		for i := deg; i >= 0; i-- {
			if coeffs[i].IsZero() {
				continue
			}
			var t fr.Element
			t.Mul(&coeffs[i], &cs[j])
			coeffs[i+d].Add(&coeffs[i+d], &t)
		}
		deg += d
	}
	return coeffs
}

// evalFinalKeyPolys evaluates both folded-key polynomials at z in
// O(log n).
func evalFinalKeyPolys(n int, xs []fr.Element, rInv, z *fr.Element) (fz, pz fr.Element) {
	fz.SetOne()
	pz.SetOne()
	// zPow[j] = z^{dⱼ}; build z^n along the way: n = Σdⱼ + 1… compute
	// z^d by repeated squaring from z^{n/2} downward instead: d halves
	// each round, so z^{d_{j+1}} = sqrt — not available. Iterate dⱼ
	// directly with Exp-by-squaring per round (k ≤ 30 rounds).
	for j := range xs {
		d := n >> (j + 1)
		zd := powScalar(z, d)
		var xInv, term fr.Element
		xInv.Inverse(&xs[j])
		rd := powScalar(rInv, d)
		term.Mul(&xInv, &rd)
		term.Mul(&term, &zd)
		var one fr.Element
		one.SetOne()
		term.Add(&term, &one)
		fz.Mul(&fz, &term)

		var termW fr.Element
		termW.Mul(&xs[j], &zd)
		termW.Add(&termW, &one)
		pz.Mul(&pz, &termW)
	}
	zn := powScalar(z, n)
	pz.Mul(&pz, &zn)
	return fz, pz
}

// powScalar computes x^d for a small non-negative integer d.
func powScalar(x *fr.Element, d int) fr.Element {
	var out fr.Element
	out.SetOne()
	base := *x
	for e := d; e > 0; e >>= 1 {
		if e&1 == 1 {
			out.Mul(&out, &base)
		}
		base.Square(&base)
	}
	return out
}

// synthDiv divides f by (X - z): f(X) = q(X)·(X-z) + f(z).
func synthDiv(f []fr.Element, z *fr.Element) (q []fr.Element, rem fr.Element) {
	deg := len(f) - 1
	if deg < 0 {
		return nil, rem
	}
	q = make([]fr.Element, deg)
	carry := f[deg]
	for i := deg - 1; i >= 0; i-- {
		q[i] = carry
		carry.Mul(&carry, z)
		carry.Add(&carry, &f[i])
	}
	return q, carry
}

// kzgCheckG2 verifies a G2 commitment opening: e(g, V·h^{-fz}) ==
// e(g^τ·g^{-z}, π), rearranged into one pairing-product check.
func kzgCheckG2(g1 *curve.G1Affine, gTau *curve.G1Affine, v, pi *curve.G2Affine, fz, z *fr.Element) bool {
	// D = V - fz·h  (G2)
	var d curve.G2Jac
	gen2 := curve.G2Generator()
	d.ScalarMul(&gen2, fz)
	d.Neg(&d)
	d.AddMixed(v)
	var dAff curve.G2Affine
	dAff.FromJacobian(&d)
	// S = g^τ - z·g  (G1), negated for the product form.
	var s curve.G1Jac
	gen1 := curve.G1Generator()
	s.ScalarMul(&gen1, z)
	var tau curve.G1Jac
	tau.FromAffine(gTau)
	tau.SubAssign(&s)
	tau.Neg(&tau)
	var sAff curve.G1Affine
	sAff.FromJacobian(&tau)
	// e(g, D) · e(-(g^τ - z·g), π) == 1
	return pairing.PairingCheck(
		[]*curve.G1Affine{g1, &sAff},
		[]*curve.G2Affine{&dAff, pi},
	)
}

// kzgCheckG1 verifies a G1 commitment opening: e(W·g^{-pz}, h) ==
// e(π, h^τ·h^{-z}).
func kzgCheckG1(g2 *curve.G2Affine, hTau *curve.G2Affine, w, pi *curve.G1Affine, pz, z *fr.Element) bool {
	// D = W - pz·g  (G1)
	gen1 := curve.G1Generator()
	var d curve.G1Jac
	d.ScalarMul(&gen1, pz)
	d.Neg(&d)
	d.AddMixed(w)
	var dAff curve.G1Affine
	dAff.FromJacobian(&d)
	// S = h^τ - z·h  (G2)
	gen2 := curve.G2Generator()
	var s curve.G2Jac
	s.ScalarMul(&gen2, z)
	s.Neg(&s)
	var tau curve.G2Jac
	tau.FromAffine(hTau)
	tau.AddAssign(&s)
	var sAff curve.G2Affine
	sAff.FromJacobian(&tau)
	var piNeg curve.G1Affine
	piNeg.Neg(pi)
	// e(D, h) · e(-π, h^τ - z·h) == 1
	return pairing.PairingCheck(
		[]*curve.G1Affine{&dAff, &piNeg},
		[]*curve.G2Affine{g2, &sAff},
	)
}

// --- Wire format ---

var magicAggregate = [4]byte{'Z', 'K', 'A', 'G'}

func writeGT(w io.Writer, v *GTElement) error {
	b := v.Bytes()
	_, err := w.Write(b[:])
	return err
}

func readGT(r io.Reader, v *GTElement) error {
	var b [ext.E12Bytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	return v.SetBytesCanonical(b[:])
}

// WriteTo serializes the aggregate proof: header, count, then the
// commitments, rounds, finals, and KZG openings.
func (a *AggregateProof) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := writeHeader(cw, magicAggregate); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, a.Count); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(a.Rounds))); err != nil {
		return cw.n, err
	}
	for _, gt := range []*GTElement{&a.TAB, &a.UAB, &a.TC, &a.UC, &a.ZAB} {
		if err := writeGT(cw, gt); err != nil {
			return cw.n, err
		}
	}
	if err := writeG1(cw, &a.ZC); err != nil {
		return cw.n, err
	}
	for i := range a.Rounds {
		rd := &a.Rounds[i]
		for _, gt := range []*GTElement{&rd.ZL, &rd.ZR, &rd.TL, &rd.TR, &rd.UL, &rd.UR, &rd.TCL, &rd.TCR, &rd.UCL, &rd.UCR} {
			if err := writeGT(cw, gt); err != nil {
				return cw.n, err
			}
		}
		if err := writeG1(cw, &rd.ZCL); err != nil {
			return cw.n, err
		}
		if err := writeG1(cw, &rd.ZCR); err != nil {
			return cw.n, err
		}
	}
	for _, p := range []*curve.G1Affine{&a.FinalA, &a.FinalC, &a.FinalW1, &a.FinalW2, &a.PiW1, &a.PiW2} {
		if err := writeG1(cw, p); err != nil {
			return cw.n, err
		}
	}
	for _, p := range []*curve.G2Affine{&a.FinalB, &a.FinalV1, &a.FinalV2, &a.PiV1, &a.PiV2} {
		if err := writeG2(cw, p); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadFrom deserializes an aggregate proof, validating curve and
// subgroup membership of every group point and canonicality of every
// target-group coefficient.
func (a *AggregateProof) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	if err := readHeader(cr, magicAggregate); err != nil {
		return cr.n, err
	}
	if err := binary.Read(cr, binary.LittleEndian, &a.Count); err != nil {
		return cr.n, err
	}
	var nRounds uint32
	if err := binary.Read(cr, binary.LittleEndian, &nRounds); err != nil {
		return cr.n, err
	}
	if a.Count < 1 {
		return cr.n, errors.New("groth16: aggregate proof has zero count")
	}
	if nRounds > 40 {
		return cr.n, errors.New("groth16: implausible aggregate round count")
	}
	wantRounds := bits.TrailingZeros(uint(ipp.NextPow2(int(a.Count))))
	if int(nRounds) != wantRounds {
		return cr.n, fmt.Errorf("groth16: aggregate count %d needs %d rounds, encoding has %d",
			a.Count, wantRounds, nRounds)
	}
	for _, gt := range []*GTElement{&a.TAB, &a.UAB, &a.TC, &a.UC, &a.ZAB} {
		if err := readGT(cr, gt); err != nil {
			return cr.n, err
		}
	}
	if err := readG1(cr, &a.ZC); err != nil {
		return cr.n, err
	}
	a.Rounds = make([]AggregateRound, nRounds)
	for i := range a.Rounds {
		rd := &a.Rounds[i]
		for _, gt := range []*GTElement{&rd.ZL, &rd.ZR, &rd.TL, &rd.TR, &rd.UL, &rd.UR, &rd.TCL, &rd.TCR, &rd.UCL, &rd.UCR} {
			if err := readGT(cr, gt); err != nil {
				return cr.n, err
			}
		}
		if err := readG1(cr, &rd.ZCL); err != nil {
			return cr.n, err
		}
		if err := readG1(cr, &rd.ZCR); err != nil {
			return cr.n, err
		}
	}
	for _, p := range []*curve.G1Affine{&a.FinalA, &a.FinalC, &a.FinalW1, &a.FinalW2, &a.PiW1, &a.PiW2} {
		if err := readG1(cr, p); err != nil {
			return cr.n, err
		}
	}
	for _, p := range []*curve.G2Affine{&a.FinalB, &a.FinalV1, &a.FinalV2, &a.PiV1, &a.PiV2} {
		if err := readG2(cr, p); err != nil {
			return cr.n, err
		}
	}
	return cr.n, nil
}

// SizeBytes reports the serialized size of the aggregate proof.
func (a *AggregateProof) SizeBytes() int64 {
	n, _ := a.WriteTo(io.Discard)
	return n
}

// MarshalJSON encodes the aggregate proof as a versioned base64
// envelope of its binary encoding (the shared wire-envelope shape).
func (a *AggregateProof) MarshalJSON() ([]byte, error) {
	return marshalEnvelope(a)
}

// UnmarshalJSON decodes an aggregate-proof envelope with full point
// validation.
func (a *AggregateProof) UnmarshalJSON(b []byte) error {
	return unmarshalEnvelope(b, "aggregate proof", func(r *bytes.Reader) error {
		_, err := a.ReadFrom(r)
		return err
	})
}
