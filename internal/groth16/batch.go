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
)

// BatchVerify checks many proofs under the same verifying key with a
// single combined pairing product. Each proof's equation
//
//	e(Aᵢ, Bᵢ) = e(α, β) · e(ICᵢ, γ) · e(Cᵢ, δ)
//
// is scaled by an independent uniform challenge rᵢ and summed: a batch
// with any invalid member passes with probability ≤ 1/r. The combined
// check needs k+2 Miller loops (e(α, β) enters as a G_T power) and one
// final exponentiation instead of k checks of 3 pairs each.
//
// rng supplies the challenges (crypto/rand when nil); it must be
// unpredictable to the prover.
func BatchVerify(vk *VerifyingKey, proofs []*Proof, publicInputs [][]fr.Element, rng io.Reader) error {
	if len(proofs) == 0 {
		return errors.New("groth16: empty batch")
	}
	if len(proofs) != len(publicInputs) {
		return fmt.Errorf("groth16: %d proofs but %d public-input sets", len(proofs), len(publicInputs))
	}
	if rng == nil {
		rng = rand.Reader
	}

	var sumR fr.Element         // Σ rᵢ
	var icAcc, cAcc curve.G1Jac // Σ rᵢ·ICᵢ, Σ rᵢ·Cᵢ
	icAcc.SetInfinity()
	cAcc.SetInfinity()

	ps := make([]*curve.G1Affine, 0, len(proofs)+2)
	qs := make([]*curve.G2Affine, 0, len(proofs)+2)

	for i, proof := range proofs {
		if len(publicInputs[i]) != len(vk.IC)-1 {
			return fmt.Errorf("groth16: proof %d has %d public inputs, vk expects %d",
				i, len(publicInputs[i]), len(vk.IC)-1)
		}
		ri, err := randFr(rng)
		if err != nil {
			return err
		}
		sumR.Add(&sumR, &ri)

		// ICᵢ = IC₀ + Σ xⱼ·IC_{j+1}, then scale by rᵢ.
		ic := curve.MultiExpG1(vk.IC[1:], publicInputs[i])
		var ic0 curve.G1Jac
		ic0.FromAffine(&vk.IC[0])
		ic.AddAssign(&ic0)
		ic.ScalarMul(&ic, &ri)
		icAcc.AddAssign(&ic)

		var ci curve.G1Jac
		ci.FromAffine(&proof.Krs)
		ci.ScalarMul(&ci, &ri)
		cAcc.AddAssign(&ci)

		// e(-rᵢ·Aᵢ, Bᵢ) term.
		var ai curve.G1Jac
		ai.FromAffine(&proof.Ar)
		ai.ScalarMul(&ai, &ri)
		ai.Neg(&ai)
		aAff := new(curve.G1Affine)
		aAff.FromJacobian(&ai)
		ps = append(ps, aAff)
		qs = append(qs, &proof.Bs)
	}

	icAff := new(curve.G1Affine)
	icAff.FromJacobian(&icAcc)
	cAff := new(curve.G1Affine)
	cAff.FromJacobian(&cAcc)

	ps = append(ps, icAff, cAff)
	qs = append(qs, &vk.GammaG2, &vk.DeltaG2)
	// Cached tables for γ and δ; none for the proofs' own Bs.
	lines := append(make([]*pairing.Lines, len(proofs), len(proofs)+2), vk.gammaLines, vk.deltaLines)

	// The α-β term e((Σrᵢ)·α, β) is e(α, β)^Σrᵢ: a cyclotomic
	// exponentiation instead of a Miller pair.
	ab := new(ext.E12).CyclotomicExp(vk.alphaBeta(), sumR.ToBigInt())
	if !pairing.PairingCheckLines(ps, qs, lines, ab) {
		return errors.New("groth16: batch verification failed")
	}
	return nil
}
