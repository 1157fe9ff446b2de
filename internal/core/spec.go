package core

import (
	"errors"
	"fmt"

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
// θ·N. The CLI, the proof service and its registry build one and let it
// compile the circuit and read the instance; its JSON names are those
// of the registry's records and the CLI's meta.json.
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

// Compile quantizes the model and key in the claim's format and builds
// its extraction circuit: the committed one, or the batched one with
// Slots slots (one slot is ExtractionCircuit, digest for digest).
func (s Spec) Compile(net *nn.Network, key *watermark.Key) (*Artifact, error) {
	q, err := nn.Quantize(net, s.Params())
	if err != nil {
		return nil, fmt.Errorf("quantization failed: %w", err)
	}
	ck := QuantizeKey(key, s.Params())
	if s.Committed {
		return CommittedExtractionCircuit(q, ck, s.MaxErrors)
	}
	return BatchedExtractionCircuit(q, ck, s.MaxErrors, s.Slots)
}

// Digest returns the digest a committed claim about net names in its
// first public input: ModelDigest of net quantized in the claim's
// format, through the key's layer.
func (s Spec) Digest(net *nn.Network, layerIndex int) (fr.Element, error) {
	q, err := nn.Quantize(net, s.Params())
	if err != nil {
		return fr.Element{}, err
	}
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
