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
//
// Result: constant-size verifying keys and millisecond verification
// regardless of model size, at unchanged prover cost.
//
// The digest does NOT bind the weights. ρ is fixed by the public model
// before the prover picks its private weights w', and the weight wires
// carry no range check, so "w' must hit a random hyperplane" does not
// hold: a prover solves for a correction e on a few weights with
// Σ ρ^(i+1)·eᵢ ≡ d(w) − d(w'') and e·x ≡ 0 on every trigger, and proves
// an unrelated model's digest with a watermarked model's claim (ROADMAP
// F2; item 21 replaces this path).

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

// CommittedExtractionCircuit builds Algorithm 1 with *private* model
// weights bound to the public digest. Public inputs: the model digest
// and the claim bit — two field elements total, independent of model
// size. The model is fixed at compile time (ρ = H(weights) lands in the
// constraint coefficients), so a committed circuit cannot be rebound to
// a suspect: proving another model means compiling another circuit.
func CommittedExtractionCircuit(q *nn.QuantizedNetwork, ck *CircuitKey, maxErrors int) (*Artifact, error) {
	if len(ck.Triggers) == 0 {
		return nil, fmt.Errorf("core: no triggers in circuit key")
	}
	rho, digest, err := ModelDigest(q, ck.LayerIndex)
	if err != nil {
		return nil, err
	}
	c := gadgets.NewCtx(q.Params)

	// Private model parameters, accumulated into the in-circuit digest
	// in the exact ModelDigest order.
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

	// Bind: Σ ρ^(i+1)·wᵢ == public digest (one constraint; the sum is
	// linear). The digest is a computed public output re-derived by the
	// solver from the private weight wires.
	inDigest := c.B.Sum(digestTerms...)
	if dv := inDigest.Value(); !dv.Equal(&digest) {
		return nil, fmt.Errorf("core: in-circuit model digest does not match ModelDigest")
	}
	c.B.PublicOutput("model_digest", inDigest)

	// The remainder is Algorithm 1, identical to ExtractionCircuit.
	valid, err := extractionSlot(c, q, ck, lv, &sharedKeyVars{}, maxErrors)
	if err != nil {
		return nil, err
	}
	c.B.PublicOutput(claimName(0, 1), valid)

	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	art := newArtifact("CommittedWatermarkExtraction", res)
	art.archParams = q.Params
	return art, nil
}
