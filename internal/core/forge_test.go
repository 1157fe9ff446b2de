package core

import (
	"math/rand"
	"testing"

	"zkrownn/internal/engine"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

// The forge catalogue: attacks by a prover who wants a claim the
// registered key does not support, run through the claim spec and one
// proving engine the way the CLI and the proof service run them. Each
// case is a proof that verifies under some VK; what must fail is the
// check a verifier makes, under the VK registered for the owner's key.

// registerKey runs (or reuses) the trusted setup of a compiled claim on
// eng, as a registration does.
func registerKey(t *testing.T, eng *engine.Engine, art *Artifact) *engine.KeyPair {
	t.Helper()
	keys, _, err := eng.Keys(art.System, nil)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestForgeKeyChosenAfterTheModel is F1: a model that never carried a
// watermark, and a fresh key whose signature is set to the bits the
// model extracts under it. The forger's proof is honest for the forged
// key and reads claim 1; under the VK of the owner's key, registered
// first on the same model, it must be rejected. With the key as private
// inputs both keys compiled to one circuit, one setup and one VK, and
// the forgery verified.
func TestForgeKeyChosenAfterTheModel(t *testing.T) {
	net, ds, rng := unwatermarkedMLP(t)
	owner, err := watermark.GenerateKey(rng, 1, 0, 16, 8, 4, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := watermark.GenerateKey(rand.New(rand.NewSource(304)), 1, 0, 16, 8, 4, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := nn.Quantize(net, Spec{FracBits: testP.FracBits}.Params())
	if err != nil {
		t.Fatal(err)
	}
	if forged.Signature, _, err = watermark.ExtractQuantized(q, forged); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Slots: 1, FracBits: testP.FracBits},
		{Committed: true, Slots: 1, FracBits: testP.FracBits},
	} {
		eng := engine.New(engine.Options{Rand: rand.New(rand.NewSource(305))})
		ownerArt, err := spec.Compile(net, owner)
		if err != nil {
			t.Fatal(err)
		}
		ownerKeys := registerKey(t, eng, ownerArt)

		forgedArt, err := spec.Compile(net, forged)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Prove(forgedArt.Request(nil))
		if err != nil {
			t.Fatal(err)
		}
		digest, err := spec.Digest(net, forged.LayerIndex)
		if err != nil {
			t.Fatal(err)
		}
		claims, err := spec.Verdict(res.PublicInputs, &digest)
		if err != nil || !claims[0] {
			t.Fatalf("committed=%v: the forgery is not a claim-1 proof for its own key (claims %v, err %v)", spec.Committed, claims, err)
		}
		if err := eng.Verify(res.Keys.VK, res.Proof, res.PublicInputs); err != nil {
			t.Fatalf("committed=%v: the forgery does not verify under its own VK: %v", spec.Committed, err)
		}
		if err := eng.Verify(ownerKeys.VK, res.Proof, res.PublicInputs); err == nil {
			t.Fatalf("committed=%v: a key chosen after the model proves ownership under the owner's VK", spec.Committed)
		}
		eng.Close()
	}
}

// TestForgeAnotherKeysVK: the owner's honest claim-1 proof on the
// watermarked model, checked under the VK of another key registered on
// the same model, must be rejected: a VK stands for one key.
func TestForgeAnotherKeysVK(t *testing.T) {
	net, _, key := watermarkedMLP(t, 300)
	other, err := watermark.GenerateKey(rand.New(rand.NewSource(306)), key.LayerIndex, 0, len(key.A), key.NbBits(), len(key.Triggers), key.Triggers)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Slots: 1, FracBits: testP.FracBits}
	eng := engine.New(engine.Options{Rand: rand.New(rand.NewSource(307))})
	defer eng.Close()
	art, err := spec.Compile(net, key)
	if err != nil {
		t.Fatal(err)
	}
	otherArt, err := spec.Compile(net, other)
	if err != nil {
		t.Fatal(err)
	}
	otherKeys := registerKey(t, eng, otherArt)
	res, err := eng.Prove(art.Request(nil))
	if err != nil {
		t.Fatal(err)
	}
	if claims, err := spec.Verdict(res.PublicInputs, nil); err != nil || !claims[0] {
		t.Fatalf("owner's proof on the watermarked model: claims %v, err %v", claims, err)
	}
	if err := eng.Verify(res.Keys.VK, res.Proof, res.PublicInputs); err != nil {
		t.Fatalf("owner's proof rejected under the owner's VK: %v", err)
	}
	if err := eng.Verify(otherKeys.VK, res.Proof, res.PublicInputs); err == nil {
		t.Fatal("owner's proof verifies under another key's VK")
	}
}
