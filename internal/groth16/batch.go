package groth16

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/obs"
)

// BatchVerify is the verifier: it checks one or more proofs under the
// same verifying key with a single combined pairing product. Each
// proof's equation
//
//	e(Aᵢ, Bᵢ) = e(α, β) · e(ICᵢ, γ) · e(Cᵢ, δ)
//
// is scaled by a challenge rᵢ and the products multiplied: the check is
// Πᵢ Eᵢ^rᵢ = 1 with Eᵢ proof i's discrepancy in G_T. r₀ is fixed at 1
// (a lone failing E₀ cannot be scaled away) and every later rᵢ is a
// uniform non-zero draw, so a batch with an invalid member passes with
// probability ≤ 1/(r−1). The combined check needs k+2 Miller loops
// (e(α, β) enters as a G_T power) and one final exponentiation instead
// of k checks of 3 pairs each.
//
// A batch of one draws nothing and scales nothing: it is the plain
// check, three Miller pairs over the key's cached γ and δ line tables,
// and fails with "groth16: invalid proof". rng supplies the challenges
// r₁… (crypto/rand when nil); it must be unpredictable to the prover. A
// trailing obs.Scope records each instance's IC multi-exponentiation and
// the pairing check as spans named under it (tr.Scope("") keeps the
// bare names).
func BatchVerify(vk *VerifyingKey, proofs []*Proof, publicInputs [][]fr.Element, rng io.Reader, sc ...obs.Scope) error {
	s := obs.Opt(sc)
	n := len(proofs)
	if n == 0 {
		return errors.New("groth16: empty batch")
	}
	if n != len(publicInputs) {
		return fmt.Errorf("groth16: %d proofs but %d public-input sets", n, len(publicInputs))
	}
	for i, pub := range publicInputs {
		if len(pub) == len(vk.IC)-1 {
			continue
		}
		if n == 1 {
			return fmt.Errorf("groth16: got %d public inputs, verifying key expects %d", len(pub), len(vk.IC)-1)
		}
		return fmt.Errorf("groth16: proof %d has %d public inputs, vk expects %d", i, len(pub), len(vk.IC)-1)
	}
	if rng == nil {
		rng = rand.Reader
	}

	var sumR fr.Element // Σ rᵢ
	sumR.SetOne()
	var icAcc, cAcc curve.G1Jac // Σ rᵢ·ICᵢ, Σ rᵢ·Cᵢ
	icAcc.SetInfinity()
	cAcc.FromAffine(&proofs[0].Krs)

	ps := make([]*curve.G1Affine, n, n+2)
	qs := make([]*curve.G2Affine, n, n+2)
	for i, proof := range proofs {
		// ICᵢ = IC₀ + Σ xⱼ·IC_{j+1}, over the instance's own scalars.
		ic := curve.MultiExpG1(vk.IC[1:], publicInputs[i], s.Sub("verify/msm-ic"))
		var ic0 curve.G1Jac
		ic0.FromAffine(&vk.IC[0])
		ic.AddAssign(&ic0)

		// The e(-rᵢ·Aᵢ, Bᵢ) term.
		negA := new(curve.G1Affine)
		if i == 0 {
			negA.Neg(&proof.Ar)
		} else {
			ri, err := randFr(rng)
			if err != nil {
				return err
			}
			sumR.Add(&sumR, &ri)
			ic.ScalarMul(&ic, &ri)

			var ci curve.G1Jac
			ci.FromAffine(&proof.Krs)
			ci.ScalarMul(&ci, &ri)
			cAcc.AddAssign(&ci)

			var ai curve.G1Jac
			ai.FromAffine(&proof.Ar)
			ai.ScalarMul(&ai, &ri)
			ai.Neg(&ai)
			negA.FromJacobian(&ai)
		}
		icAcc.AddAssign(&ic)
		ps[i], qs[i] = negA, &proof.Bs
	}

	icAff := new(curve.G1Affine).FromJacobian(&icAcc)
	// e(α, β)^Σrᵢ stands in for the α-β Miller pair; r₀ alone is 1.
	cAff, ab := &proofs[0].Krs, vk.alphaBeta()
	if n > 1 {
		cAff = new(curve.G1Affine).FromJacobian(&cAcc)
		ab = new(ext.E12).CyclotomicExp(ab, sumR.ToBigInt())
	}
	ps = append(ps, icAff, cAff)
	qs = append(qs, &vk.GammaG2, &vk.DeltaG2)
	// Cached tables for γ and δ; none for the proofs' own Bs.
	lines := append(make([]*pairing.Lines, n, n+2), vk.gammaLines, vk.deltaLines)

	sp := s.Sub("verify/pairing").Span()
	ok := pairing.PairingCheckLines(ps, qs, lines, ab)
	sp.End()
	switch {
	case ok:
		return nil
	case n == 1:
		return errors.New("groth16: invalid proof")
	default:
		return errors.New("groth16: batch verification failed")
	}
}
