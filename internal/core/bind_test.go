package core

import (
	"math/rand"
	"strings"
	"testing"

	"zkrownn/internal/nn"
)

// Edge-case coverage for the suspect-rebinding path: every malformed
// suspect must produce a descriptive error, never a panic or a silent
// mis-binding.

// twoDenseNet builds a dense→relu→dense network so mismatches can be
// planted at the first or last evaluated layer.
func twoDenseNet(seed int64, in, hidden, out int) *nn.QuantizedNetwork {
	rng := rand.New(rand.NewSource(seed))
	return &nn.QuantizedNetwork{
		Params: batchP,
		Layers: []nn.QuantizedLayer{
			randQuantDense(rng, batchP, in, hidden),
			{Kind: "relu", Out: hidden},
			randQuantDense(rng, batchP, hidden, out),
		},
	}
}

func twoDenseArtifact(t *testing.T, seed int64) (*Artifact, *CircuitKey) {
	t.Helper()
	q := twoDenseNet(seed, 4, 3, 2)
	ck := randCircuitKey(rand.New(rand.NewSource(seed+100)), batchP, 4, 2, 4, 2)
	ck.LayerIndex = 2 // evaluate through the last dense layer
	art, err := ExtractionCircuit(q, ck, 2)
	if err != nil {
		t.Fatal(err)
	}
	return art, ck
}

// wantBindError asserts BindSuspectInputs rejects the suspect with an
// error mentioning every given fragment (and without panicking).
func wantBindError(t *testing.T, art *Artifact, suspect *nn.QuantizedNetwork, fragments ...string) {
	t.Helper()
	_, err := BindSuspectInputs(art, suspect)
	if err == nil {
		t.Fatal("malformed suspect accepted")
	}
	for _, frag := range fragments {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

func TestBindSuspectEmptyNetwork(t *testing.T) {
	art, _ := twoDenseArtifact(t, 50)
	empty := &nn.QuantizedNetwork{Params: batchP}
	wantBindError(t, art, empty, "architecture mismatch")
}

func TestBindSuspectMissingLayer(t *testing.T) {
	art, _ := twoDenseArtifact(t, 51)
	// Suspect stops before the evaluated prefix ends (missing the last
	// dense layer).
	short := twoDenseNet(51, 4, 3, 2)
	short.Layers = short.Layers[:2]
	wantBindError(t, art, short, "architecture mismatch")
}

func TestBindSuspectExtraTrailingLayerAllowed(t *testing.T) {
	art, _ := twoDenseArtifact(t, 52)
	// Extra layers BEYOND the evaluated prefix are fine: the circuit
	// only reads layers 0..l_wm.
	deep := twoDenseNet(99, 4, 3, 2)
	deep.Layers = append(deep.Layers, nn.QuantizedLayer{Kind: "relu", Out: 2})
	if _, err := BindSuspectInputs(art, deep); err != nil {
		t.Fatalf("suspect with extra trailing layer rejected: %v", err)
	}
}

func TestBindSuspectShapeMismatchFirstLayer(t *testing.T) {
	art, _ := twoDenseArtifact(t, 53)
	bad := twoDenseNet(53, 5, 3, 2) // layer 0 in-dim 5 vs 4
	wantBindError(t, art, bad, "layer 0")
}

func TestBindSuspectShapeMismatchLastLayer(t *testing.T) {
	art, _ := twoDenseArtifact(t, 54)
	bad := twoDenseNet(54, 4, 3, 3) // layer 2 out-dim 3 vs 2
	wantBindError(t, art, bad, "layer 2")
}

func TestBindSuspectKindMismatch(t *testing.T) {
	art, _ := twoDenseArtifact(t, 55)
	bad := twoDenseNet(55, 4, 3, 2)
	bad.Layers[1].Kind = "sigmoid"
	wantBindError(t, art, bad, "layer 1", "kind")
}

func TestBindSuspectWeightCountMismatch(t *testing.T) {
	art, _ := twoDenseArtifact(t, 56)
	bad := twoDenseNet(56, 4, 3, 2)
	bad.Layers[0].W = bad.Layers[0].W[:len(bad.Layers[0].W)-1]
	wantBindError(t, art, bad, "weights")
}

// TestSuspectVectorNamesLayers covers the name-resolution helper: a
// weight input naming a layer the suspect doesn't have is an error, a
// non-weight name is simply not a weight input.
func TestSuspectVectorNamesLayers(t *testing.T) {
	q := twoDenseNet(57, 4, 3, 2)
	if _, ok, err := suspectVector(q, "w0"); !ok || err != nil {
		t.Fatalf("w0 not resolved: ok=%v err=%v", ok, err)
	}
	if _, ok, err := suspectVector(q, "b2"); !ok || err != nil {
		t.Fatalf("b2 not resolved: ok=%v err=%v", ok, err)
	}
	if _, _, err := suspectVector(q, "w9"); err == nil {
		t.Fatal("weight input naming a missing layer accepted")
	}
	for _, name := range []string{"claim", "claim3", "relu_out", "sigmoid_out", "x", ""} {
		if _, ok, err := suspectVector(q, name); ok || err != nil {
			t.Fatalf("%q misidentified as a weight input (ok=%v err=%v)", name, ok, err)
		}
	}
}

// TestSplitSlotName pins the slot-name grammar used by batched
// circuits.
func TestSplitSlotName(t *testing.T) {
	cases := []struct {
		name string
		slot int
		base string
	}{
		{"w0", 0, "w0"},
		{"b3", 0, "b3"},
		{"s0.w0", 0, "w0"},
		{"s12.b7", 12, "b7"},
		{"claim", 0, "claim"},
		{"claim4", 0, "claim4"},
		{"sigmoid_out", 0, "sigmoid_out"},
		{"s.w0", 0, "s.w0"},   // no slot digits
		{"sx.w0", 0, "sx.w0"}, // non-numeric slot
	}
	for _, c := range cases {
		slot, base := splitSlotName(c.name)
		if slot != c.slot || base != c.base {
			t.Fatalf("splitSlotName(%q) = (%d, %q), want (%d, %q)", c.name, slot, base, c.slot, c.base)
		}
	}
}
