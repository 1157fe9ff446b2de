package core

import (
	"math/rand"
	"testing"

	"zkrownn/internal/fixpoint"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/nn"
	"zkrownn/internal/r1cs/r1cstest"
)

// tableICircuits enumerates every Table I circuit at smoke scale —
// shared by the solver oracle below and reused wherever the full
// circuit zoo is needed.
func tableICircuits(t *testing.T, p fixpoint.Params, seed int64) []*Artifact {
	t.Helper()
	build := func(name string, f func(rng *rand.Rand) (*Artifact, error)) *Artifact {
		art, err := f(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return art
	}
	shape := gadgets.Conv3DShape{InC: 2, InH: 6, InW: 6, OutC: 2, K: 3, S: 2}
	return []*Artifact{
		build("matmult", func(rng *rand.Rand) (*Artifact, error) { return MatMultCircuit(p, 4, rng) }),
		build("conv3d", func(rng *rand.Rand) (*Artifact, error) { return Conv3DCircuit(p, shape, rng) }),
		build("relu", func(rng *rand.Rand) (*Artifact, error) { return ReLUCircuit(p, 6, rng) }),
		build("average2d", func(rng *rand.Rand) (*Artifact, error) { return Average2DCircuit(p, 4, rng) }),
		build("sigmoid", func(rng *rand.Rand) (*Artifact, error) { return SigmoidCircuit(p, 3, rng) }),
		build("threshold", func(rng *rand.Rand) (*Artifact, error) { return HardThresholdingCircuit(p, 6, rng) }),
		build("ber", func(rng *rand.Rand) (*Artifact, error) { return BERCircuit(p, 8, 2, rng) }),
		build("mnist-mlp", func(rng *rand.Rand) (*Artifact, error) {
			return BenchMLPExtractionCircuit(p, 6, 4, 4, 2, rng)
		}),
		build("cifar10-cnn", func(rng *rand.Rand) (*Artifact, error) {
			return BenchCNNExtractionCircuit(p, shape, 4, 2, rng)
		}),
	}
}

// pinnedDigests holds the circuit digests of two seed-42 Table I circuits
// as literals, generated at 8cda237. The digest names every key-cache
// file and registry model ID: if one of these moves, every persisted
// .pk/.vk/.csr and registry entry is orphaned, so a change that means to
// move it (a gadget diet, a new layout) updates the literal and says so.
var pinnedDigests = map[string]string{
	"BER-8":     "a6c32f3d9d30bc6f354043ab84bb8fa6c6ad0f3c11cb32fccf9bff574ee96ca3",
	"MNIST-MLP": "c7283745caacee276f9a76ebdb750aff9807c3f4d5436b5081370bb59e9be08f",
}

// TestSolveOracleTableI asserts, for every Table I circuit, that the
// recorded solver program reproduces the eager builder's witness bit
// for bit — the compile-once / solve-many correctness contract — and
// that the math/big row oracle reads the compiled rows the way the CSR
// walker and digest do.
func TestSolveOracleTableI(t *testing.T) {
	p := fixpoint.Params{FracBits: 8, MagBits: 36}
	digests := map[string]string{}
	for _, art := range tableICircuits(t, p, 42) {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
				t.Fatalf("eager witness violates constraint %d", bad)
			}
			rows := r1cstest.RowsOf(art.System)
			if ok, bad := r1cstest.Satisfied(rows, r1cstest.Big(art.Witness)); !ok {
				t.Fatalf("oracle: eager witness violates constraint %d", bad)
			}
			digest := art.System.DigestHex()
			if want := r1cstest.Digest(rows); digest != want {
				t.Fatalf("digest %s, oracle digest %s", digest, want)
			}
			digests[art.Name] = digest
			solved, err := art.System.SolveAssignment(art.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			if len(solved) != len(art.Witness) {
				t.Fatalf("solved %d wires, eager has %d", len(solved), len(art.Witness))
			}
			for i := range solved {
				if !solved[i].Equal(&art.Witness[i]) {
					t.Fatalf("wire %d: solver %v != eager %v", i, solved[i], art.Witness[i])
				}
			}
		})
	}
	for name, want := range pinnedDigests {
		if got := digests[name]; got != want {
			t.Errorf("CIRCUIT DIGEST DRIFT: %s compiles to %q, pinned %s", name, got, want)
		}
	}
}

// TestCommittedSolveOracle covers the committed-model variant: its
// model digest and claim are computed public outputs, re-derived by the
// solver from the private weights.
func TestCommittedSolveOracle(t *testing.T) {
	p := fixpoint.Params{FracBits: 8, MagBits: 36}
	rng := rand.New(rand.NewSource(7))
	q := &nn.QuantizedNetwork{
		Params: p,
		Layers: []nn.QuantizedLayer{
			randQuantDense(rng, p, 5, 3),
			{Kind: "relu", Out: 3},
		},
	}
	ck := randCircuitKey(rng, p, 5, 3, 4, 2)
	art, err := CommittedExtractionCircuit(q, ck, 4)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := art.System.SolveAssignment(art.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solved {
		if !solved[i].Equal(&art.Witness[i]) {
			t.Fatalf("wire %d: solver %v != eager %v", i, solved[i], art.Witness[i])
		}
	}
	if len(art.System.PubInputs) != 0 {
		t.Fatalf("committed circuit should have no provided public inputs, has %d", len(art.System.PubInputs))
	}
	// The first public value is the model digest, recomputed in-circuit.
	_, wantDigest, err := ModelDigest(q, ck.LayerIndex)
	if err != nil {
		t.Fatal(err)
	}
	pub := art.System.PublicValues(solved)
	if !pub[0].Equal(&wantDigest) {
		t.Fatal("solved model digest differs from ModelDigest")
	}
}

// TestBindSuspectInputs proves one compiled extraction circuit against
// a different model of the same architecture: binding must reproduce
// exactly the witness a from-scratch compile of the suspect would give,
// without compiling anything.
func TestBindSuspectInputs(t *testing.T) {
	p := fixpoint.Params{FracBits: 8, MagBits: 36}
	mkNet := func(seed int64) *nn.QuantizedNetwork {
		rng := rand.New(rand.NewSource(seed))
		return &nn.QuantizedNetwork{
			Params: p,
			Layers: []nn.QuantizedLayer{
				randQuantDense(rng, p, 5, 3),
				{Kind: "relu", Out: 3},
			},
		}
	}
	keyRng := rand.New(rand.NewSource(99))
	ck := randCircuitKey(keyRng, p, 5, 3, 4, 2)

	registered := mkNet(1)
	art, err := ExtractionCircuit(registered, ck, 4)
	if err != nil {
		t.Fatal(err)
	}

	suspect := mkNet(2)
	asg, err := BindSuspectInputs(art, suspect)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := art.System.SolveAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := art.System.IsSatisfied(solved); !ok {
		t.Fatalf("bound witness violates constraint %d", bad)
	}

	// Oracle: compiling the suspect from scratch must give the same
	// circuit (digest) and the same witness.
	artSuspect, err := ExtractionCircuit(suspect, ck, 4)
	if err != nil {
		t.Fatal(err)
	}
	if artSuspect.System.DigestHex() != art.System.DigestHex() {
		t.Fatal("same-architecture suspect compiled to a different circuit")
	}
	for i := range solved {
		if !solved[i].Equal(&artSuspect.Witness[i]) {
			t.Fatalf("wire %d: bound-solve %v != suspect eager %v", i, solved[i], artSuspect.Witness[i])
		}
	}

	// Architecture mismatches are rejected before any solving.
	wide := &nn.QuantizedNetwork{
		Params: p,
		Layers: []nn.QuantizedLayer{
			randQuantDense(rand.New(rand.NewSource(3)), p, 5, 4),
			{Kind: "relu", Out: 4},
		},
	}
	if _, err := BindSuspectInputs(art, wide); err == nil {
		t.Fatal("binding a mismatched suspect succeeded")
	}

	// Same flat weight COUNT but a different shape (3×5 vs 5×3: both 15
	// weights) must still be rejected — counts alone are not identity.
	reshaped := &nn.QuantizedNetwork{
		Params: p,
		Layers: []nn.QuantizedLayer{
			randQuantDense(rand.New(rand.NewSource(4)), p, 3, 5),
			{Kind: "relu", Out: 5},
		},
	}
	if _, err := BindSuspectInputs(art, reshaped); err == nil {
		t.Fatal("reshaped suspect with matching weight count accepted")
	}

	// A suspect quantized under a different fixed-point format is a
	// different circuit, however well its shapes match.
	requantized := mkNet(2)
	requantized.Params = fixpoint.Params{FracBits: 10, MagBits: 36}
	if _, err := BindSuspectInputs(art, requantized); err == nil {
		t.Fatal("suspect with a different fixed-point format accepted")
	}

	// Committed circuits cannot be rebound (no weight inputs).
	artC, err := CommittedExtractionCircuit(registered, ck, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BindSuspectInputs(artC, suspect); err == nil {
		t.Fatal("committed circuit rebinding succeeded")
	}
}
