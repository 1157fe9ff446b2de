package core

import (
	"math/rand"
	"strings"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/dataset"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

func TestSpecValidate(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		err  string // "" when valid
	}{
		{Spec{Slots: 1, FracBits: 16}, ""},
		{Spec{Slots: MaxSlots, FracBits: 16, MaxErrors: 3}, ""},
		{Spec{Committed: true, Slots: 1, FracBits: 12}, ""},
		{Spec{Slots: 1, FracBits: 16, MaxErrors: -1}, "max_errors must be >= 0"},
		{Spec{Slots: 0, FracBits: 16}, "bundle_slots must be in [1, 32], got 0"},
		{Spec{Slots: MaxSlots + 1, FracBits: 16}, "bundle_slots must be in [1, 32], got 33"},
		{Spec{Committed: true, Slots: 2, FracBits: 16}, "cannot carry suspect bundle slots"},
		{Spec{Slots: 1, FracBits: 31}, "FracBits 31 out of range"},
	} {
		err := c.spec.Validate()
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%+v: Validate() = %v, want %q", c.spec, err, c.err)
		}
	}
}

// TestSpecCompileAndVerdict holds Spec.Compile to the circuits it picks,
// digest for digest, and reads each one's build-time instance back
// through Spec.Verdict.
func TestSpecCompileAndVerdict(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Samples: 30, Dim: 6, Classes: 2, ClusterStd: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	net := nn.NewMLP(nn.MLPConfig{In: 6, Hidden: []int{4}, Classes: 2}, rng)
	key, err := watermark.GenerateKey(rng, 1, 0, 4, 4, 2, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}

	// named builds the circuit a spec names for a model quantized in q's
	// format, key included.
	named := func(spec Spec, q *nn.QuantizedNetwork) [32]byte {
		t.Helper()
		ck := QuantizeKey(key, q.Params)
		var art *Artifact
		var err error
		if spec.Committed {
			art, err = CommittedExtractionCircuit(q, ck, spec.MaxErrors)
		} else {
			art, err = BatchedExtractionCircuit(q, ck, spec.MaxErrors, spec.Slots)
		}
		if err != nil {
			t.Fatal(err)
		}
		return art.System.Digest()
	}
	for _, spec := range []Spec{
		{Slots: 1, FracBits: 12, MaxErrors: 4},
		{Slots: 2, FracBits: 12, MaxErrors: 4},
		{Committed: true, Slots: 1, FracBits: 12, MaxErrors: 4},
	} {
		art, err := spec.Compile(net, key)
		if err != nil {
			t.Fatal(err)
		}
		q, err := nn.Quantize(net, spec.Params())
		if err != nil {
			t.Fatal(err)
		}
		if art.System.Digest() != named(spec, q) {
			t.Fatalf("%+v: Compile's circuit differs from the one it names", spec)
		}
		// A model quantized at a MagBits no spec spells compiles in its
		// own format.
		q40, err := nn.Quantize(net, fixpoint.Params{FracBits: 12, MagBits: 40})
		if err != nil {
			t.Fatal(err)
		}
		own, err := spec.CompileQuantized(q40, key)
		if err != nil {
			t.Fatal(err)
		}
		if d := own.System.Digest(); d != named(spec, q40) || d == art.System.Digest() {
			t.Fatalf("%+v: CompileQuantized did not build in the model's own format", spec)
		}

		var digest *fr.Element
		if spec.Committed {
			d, err := spec.Digest(net, key.LayerIndex)
			if err != nil {
				t.Fatal(err)
			}
			digest = &d
		}
		public := art.PublicInputs()
		claims, err := spec.Verdict(public, digest)
		if err != nil || len(claims) != spec.Slots {
			t.Fatalf("%+v: Verdict = %v, %v", spec, claims, err)
		}
		for _, c := range claims {
			if !c {
				t.Fatalf("%+v: claims %v under a tolerance of every bit", spec, claims)
			}
		}
		if spec.Committed {
			var other fr.Element
			other.SetUint64(9)
			if _, err := spec.Verdict(public, &other); err == nil {
				t.Fatal("committed verdict accepted an instance naming another digest")
			}
			if _, err := spec.Verdict(public, nil); err == nil {
				t.Fatal("committed verdict read without a digest")
			}
		}
	}

	// A spec with no slots — records written before bundles — reads one.
	var one fr.Element
	one.SetOne()
	if claims, err := (Spec{}).Verdict([]fr.Element{{}, one}, nil); err != nil || len(claims) != 1 || !claims[0] {
		t.Fatalf("zero-slot verdict = %v, %v", claims, err)
	}
}
