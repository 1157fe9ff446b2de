package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/frontend"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/nn"
)

// Committed-model extraction.
//
// In the paper's construction the suspect model's weights are *public
// inputs*, which makes the verifying key grow with the model (16 MB for
// the MNIST MLP) and adds a large multi-exponentiation to every
// verification. This extension replaces the weight wires with private
// inputs bound to the public model by a Fiat-Shamir random linear
// combination:
//
//	ρ  = H(model bytes)                       (SHA-256, public)
//	d  = Σᵢ ρ^(i+1)·wᵢ mod r                  (the digest)
//
// The verifier recomputes d from the public model in O(n) field
// operations; the circuit computes the same combination over its
// private weight wires — entirely linear, so it costs ONE extra
// constraint — and exposes d as the sole model-related public input.
// A prover using different weights w' must hit a random codimension-1
// hyperplane (probability ≤ n/r ≈ 2^-230), so the proof still binds to
// exactly the published model.
//
// Result: constant-size verifying keys and millisecond verification
// regardless of model size, at unchanged prover cost.

// ModelDigest computes (ρ, d) for a quantized model prefix
// (layers 0..layerIndex). Both prover and verifier call this on the
// public model.
func ModelDigest(q *nn.QuantizedNetwork, layerIndex int) (rho fr.Element, digest fr.Element, err error) {
	if layerIndex >= len(q.Layers) {
		return rho, digest, fmt.Errorf("core: layer index %d out of range", layerIndex)
	}
	// ρ = H(serialized weights) mapped into F_r.
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(q.Params.FracBits))
	writeInt(int64(layerIndex))
	for li := 0; li <= layerIndex; li++ {
		l := &q.Layers[li]
		writeInt(int64(len(l.W)))
		for _, w := range l.W {
			writeInt(w)
		}
		writeInt(int64(len(l.B)))
		for _, b := range l.B {
			writeInt(b)
		}
	}
	rho.SetBytes(h.Sum(nil))

	// d = Σ ρ^(i+1)·vᵢ over the same serialization order.
	var acc, pow fr.Element
	pow.Set(&rho)
	absorb := func(v int64) {
		f := fixpoint.ToField(v)
		var term fr.Element
		term.Mul(&pow, &f)
		acc.Add(&acc, &term)
		pow.Mul(&pow, &rho)
	}
	for li := 0; li <= layerIndex; li++ {
		l := &q.Layers[li]
		for _, w := range l.W {
			absorb(w)
		}
		for _, b := range l.B {
			absorb(b)
		}
	}
	return rho, acc, nil
}

// digestName names slot s's public model-digest output ("model_digest"
// when single).
func digestName(slot, nbSlots int) string {
	if nbSlots == 1 {
		return "model_digest"
	}
	return fmt.Sprintf("model_digest%d", slot)
}

// CommittedExtractionCircuit builds Algorithm 1 with *private* model
// weights bound to the public digest. Public inputs: the model digest
// and the claim bit — two field elements total, independent of model
// size.
func CommittedExtractionCircuit(q *nn.QuantizedNetwork, ck *CircuitKey, maxErrors int) (*Artifact, error) {
	return BatchedCommittedExtractionCircuit([]*nn.QuantizedNetwork{q}, ck, maxErrors)
}

// BatchedCommittedExtractionCircuit is the committed-model analogue of
// BatchedExtractionCircuit: each slot bakes one model's weights into
// private wires bound to that model's Fiat-Shamir digest, and the
// shared watermark key is extracted against every slot. Public inputs
// are the K per-slot model digests followed by the K claim bits —
// 2K field elements regardless of model size.
//
// Unlike the public-weight batched circuit, the slot models are fixed
// at compile time (ρ = H(weights) lands in the constraint
// coefficients), so the batch membership cannot be rebound: proving a
// different batch means compiling a different circuit. All models must
// share the architecture of qs[0] through the key's layer index.
func BatchedCommittedExtractionCircuit(qs []*nn.QuantizedNetwork, ck *CircuitKey, maxErrors int) (*Artifact, error) {
	k := len(qs)
	if k < 1 {
		return nil, fmt.Errorf("core: batched committed extraction needs at least one model")
	}
	if len(ck.Triggers) == 0 {
		return nil, fmt.Errorf("core: no triggers in circuit key")
	}
	if ck.LayerIndex >= len(qs[0].Layers) {
		return nil, fmt.Errorf("core: layer index %d out of range", ck.LayerIndex)
	}
	for s := 1; s < k; s++ {
		if err := SameArchitecture(qs[0], qs[s], ck.LayerIndex); err != nil {
			return nil, fmt.Errorf("core: committed batch slot %d: %w", s, err)
		}
	}
	c := gadgets.NewCtx(qs[0].Params)

	kv := &sharedKeyVars{}
	claims := make([]frontend.Variable, k)
	for s := 0; s < k; s++ {
		q := qs[s]
		rho, digest, err := ModelDigest(q, ck.LayerIndex)
		if err != nil {
			return nil, err
		}

		// Private model parameters, accumulated into the in-circuit
		// digest in the exact ModelDigest order.
		var digestTerms []frontend.Variable
		var pow fr.Element
		pow.Set(&rho)
		absorb := func(v frontend.Variable) {
			digestTerms = append(digestTerms, c.B.MulConst(v, pow))
			pow.Mul(&pow, &rho)
		}
		lv := make([]layerVars, ck.LayerIndex+1)
		for li := 0; li <= ck.LayerIndex; li++ {
			l := &q.Layers[li]
			switch l.Kind {
			case "dense", "conv":
				lv[li].w = secretVec(c, l.W)
				lv[li].bias = secretVec(c, l.B)
				for _, v := range lv[li].w {
					absorb(v)
				}
				for _, v := range lv[li].bias {
					absorb(v)
				}
			}
		}

		// Bind: Σ ρ^(i+1)·wᵢ == public digest (one constraint; the sum
		// is linear). The digest is a computed public output re-derived
		// by the solver from the private weight wires.
		inDigest := c.B.Sum(digestTerms...)
		if dv := inDigest.Value(); !dv.Equal(&digest) {
			return nil, fmt.Errorf("core: in-circuit model digest does not match ModelDigest")
		}
		c.B.PublicOutput(digestName(s, k), inDigest)

		// The remainder is Algorithm 1, identical to ExtractionCircuit.
		valid, err := extractionSlot(c, q, ck, lv, kv, maxErrors)
		if err != nil {
			return nil, err
		}
		claims[s] = valid
	}

	for s := 0; s < k; s++ {
		c.B.PublicOutput(claimName(s, k), claims[s])
	}

	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	name := "CommittedWatermarkExtraction"
	if k > 1 {
		name = fmt.Sprintf("BatchedCommittedExtraction-x%d", k)
	}
	art := newArtifact(name, res)
	art.archParams = qs[0].Params
	art.slots = k
	return art, nil
}

// VerifyCommittedPublicInputs checks that a committed-extraction proof's
// public inputs match the given public model: the digest must equal
// ModelDigest(q) and the claim must be 1. Callers combine this with
// groth16.Verify.
func VerifyCommittedPublicInputs(q *nn.QuantizedNetwork, layerIndex int, public []fr.Element) error {
	if len(public) != 2 {
		return fmt.Errorf("core: committed circuit has 2 public inputs, got %d", len(public))
	}
	_, want, err := ModelDigest(q, layerIndex)
	if err != nil {
		return err
	}
	claims, err := Spec{Committed: true}.Verdict(public, &want)
	if err != nil {
		return err
	}
	if !claims[0] {
		return fmt.Errorf("core: ownership claim is 0")
	}
	return nil
}
