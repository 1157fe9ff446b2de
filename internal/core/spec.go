package core

import (
	"errors"
	"fmt"
	"math/big"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

// MaxSlots bounds a claim's suspect slots: a K-slot circuit is about K
// times the single circuit, so an unbounded K would let one request
// commission an arbitrarily large compile and trusted setup.
const MaxSlots = 32

// Spec is the shape of an ownership claim, fixed by the owner before
// anything is proved: whether the model is bound by its digest
// (Committed) or published as public inputs, how many suspect slots one
// proof carries, the fixed-point fraction bits, and the BER tolerance
// θ·N. The CLI, the proof service, its registry and the public Go API
// build one and let it compile the circuit and read the instance; its
// JSON names are those of the registry's records and the CLI's
// meta.json.
type Spec struct {
	Committed bool `json:"committed,omitempty"`
	Slots     int  `json:"bundle_slots,omitempty"`
	FracBits  int  `json:"frac_bits"`
	MaxErrors int  `json:"max_errors"`
}

// Params returns the claim's fixed-point format: FracBits fraction bits
// within fixpoint.Default16's magnitude.
func (s Spec) Params() fixpoint.Params {
	p := fixpoint.Default16
	p.FracBits = s.FracBits
	return p
}

// Validate rejects a claim no circuit is built for. Its messages are
// the proof service's 400 answers.
func (s Spec) Validate() error {
	switch {
	case s.MaxErrors < 0:
		return errors.New("max_errors must be >= 0")
	case s.Slots < 1 || s.Slots > MaxSlots:
		return fmt.Errorf("bundle_slots must be in [1, %d], got %d", MaxSlots, s.Slots)
	case s.Committed && s.Slots > 1:
		return errors.New("committed circuits bake the model into the constraints and cannot carry suspect bundle slots; use the non-committed variant for bundles")
	}
	// A format out of range would quantize degenerately (a 2^64 scale
	// wraps to 0).
	return s.Params().Validate()
}

// FalseClaimBound is what a claim under the spec is worth against a
// signature of bits bits: the chance that a model which never carried
// the watermark passes anyway. Such a model's extracted bits match the
// signature as fair coins, so this is P[Bin(bits, ½) ≤ MaxErrors] =
// Σ_{k ≤ MaxErrors} C(bits, k) / 2^bits, summed exactly in math/big and
// rounded once. At MaxErrors ≥ bits it is 1: every model passes.
func (s Spec) FalseClaimBound(bits int) float64 {
	if s.MaxErrors < 0 {
		return 0
	}
	if s.MaxErrors >= bits {
		return 1
	}
	sum, c := new(big.Int), big.NewInt(1)
	for k := 0; k <= s.MaxErrors; k++ {
		sum.Add(sum, c)
		c.Mul(c, big.NewInt(int64(bits-k)))
		c.Quo(c, big.NewInt(int64(k+1)))
	}
	f, _ := new(big.Rat).SetFrac(sum, new(big.Int).Lsh(big.NewInt(1), uint(bits))).Float64()
	return f
}

// Compile quantizes the model in the claim's format and builds its
// extraction circuit (CompileQuantized).
func (s Spec) Compile(net *nn.Network, key *watermark.Key) (*Artifact, error) {
	q, err := nn.Quantize(net, s.Params())
	if err != nil {
		return nil, fmt.Errorf("quantization failed: %w", err)
	}
	return s.CompileQuantized(q, key)
}

// CompileQuantized builds the claim's extraction circuit for a model
// already quantized, with the key quantized in the model's own format
// (FracBits is not read): the committed circuit, or the batched one
// with Slots slots (one slot is ExtractionCircuit, digest for digest).
// It is the one map from a claim to its circuit.
func (s Spec) CompileQuantized(q *nn.QuantizedNetwork, key *watermark.Key) (*Artifact, error) {
	ck := QuantizeKey(key, q.Params)
	if s.Committed {
		return CommittedExtractionCircuit(q, ck, s.MaxErrors)
	}
	return BatchedExtractionCircuit(q, ck, s.MaxErrors, s.Slots)
}

// Digest returns the digest a committed claim about net names in its
// first public input: net quantized in the claim's format, digested by
// DigestQuantized.
func (s Spec) Digest(net *nn.Network, layerIndex int) (fr.Element, error) {
	q, err := nn.Quantize(net, s.Params())
	if err != nil {
		return fr.Element{}, err
	}
	return s.DigestQuantized(q, layerIndex)
}

// DigestQuantized returns ModelDigest of a quantized model through the
// key's layer: what Verdict compares a committed instance against.
func (Spec) DigestQuantized(q *nn.QuantizedNetwork, layerIndex int) (fr.Element, error) {
	_, d, err := ModelDigest(q, layerIndex)
	return d, err
}

// Verdict reads an instance under the claim: its per-slot claim bits,
// in slot order (ClaimBits). A committed instance names its model by
// the digest in its first input, and Verdict rejects one that does not
// name digest. Slots 0 reads as one slot: records and meta files
// written before bundles carry none.
func (s Spec) Verdict(public []fr.Element, digest *fr.Element) ([]bool, error) {
	if s.Committed {
		switch {
		case digest == nil:
			return nil, errors.New("core: a committed claim is read against its model digest")
		case len(public) == 0:
			return nil, errors.New("committed proof has no public inputs")
		case !public[0].Equal(digest):
			return nil, errors.New("model digest mismatch: proof is not about the registered model")
		}
	}
	return ClaimBits(public, max(s.Slots, 1))
}
