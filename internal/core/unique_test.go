package core

import (
	"math/rand"
	"testing"

	"zkrownn/internal/fixpoint"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/nn"
	"zkrownn/internal/r1cs/r1cstest"
)

// TestExtractionWitnessesDetermined runs the static uniqueness check
// over every shipped extraction circuit: the bench shape, Table I's
// MNIST-MLP, CIFAR10-CNN and batched rows at tiny scale, and the
// committed variant. The constant wire, the instance and the declared
// inputs must determine every other wire.
func TestExtractionWitnessesDetermined(t *testing.T) {
	p := fixpoint.Default16
	seed := func() *rand.Rand { return rand.New(rand.NewSource(46)) }
	circuits := []struct {
		name  string
		build func() (*Artifact, error)
	}{
		{"bench-128x32", func() (*Artifact, error) { return BenchMLPExtractionCircuit(p, 128, 32, 16, 2, seed()) }},
		{"mnist-mlp", func() (*Artifact, error) { return BenchMLPExtractionCircuit(p, 32, 16, 8, 2, seed()) }},
		{"cifar10-cnn", func() (*Artifact, error) {
			return BenchCNNExtractionCircuit(p, gadgets.Conv3DShape{InC: 3, InH: 8, InW: 8, OutC: 4, K: 3, S: 2}, 8, 2, seed())
		}},
		{"batched-extraction-k1", func() (*Artifact, error) { return BenchBatchedMLPExtractionCircuit(p, 32, 16, 8, 2, 1, seed()) }},
		{"batched-extraction-k4", func() (*Artifact, error) { return BenchBatchedMLPExtractionCircuit(p, 32, 16, 8, 2, 4, seed()) }},
		{"committed", func() (*Artifact, error) {
			rng := seed()
			q := &nn.QuantizedNetwork{Params: p, Layers: []nn.QuantizedLayer{randQuantDense(rng, p, 32, 16), {Kind: "relu", Out: 16}}}
			return CommittedExtractionCircuit(q, randCircuitKey(rng, p, 32, 16, 8, 2), 8)
		}},
	}
	for _, tc := range circuits {
		t.Run(tc.name, func(t *testing.T) {
			art, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if u := r1cstest.Undetermined(r1cstest.RowsOf(art.System), r1cstest.DeclaredInputs(art.System)); len(u) != 0 {
				t.Errorf("%d of %d wires undetermined, first %v", len(u), art.System.NbWires, u[:min(len(u), 8)])
			}
		})
	}
}
