package core

import (
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
)

func TestModelDigestDeterministic(t *testing.T) {
	_, q, _ := watermarkedMLP(t, 800)
	r1, d1, err := ModelDigest(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, d2, err := ModelDigest(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(&r2) || !d1.Equal(&d2) {
		t.Fatal("digest not deterministic")
	}
	// Tampering with any weight changes the digest.
	q.Layers[0].W[3]++
	_, d3, err := ModelDigest(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Equal(&d1) {
		t.Fatal("weight tampering left digest unchanged")
	}
	if _, _, err := ModelDigest(q, 99); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
}

func TestCommittedExtractionEndToEnd(t *testing.T) {
	_, q, key := watermarkedMLP(t, 801)
	ck := QuantizeKey(key, testP)

	art, err := CommittedExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
		t.Fatalf("committed circuit unsatisfied at %d", bad)
	}
	// Exactly two public inputs: digest and claim.
	if art.System.NbPublic != 3 { // constant + 2
		t.Fatalf("committed circuit has %d public wires, want 3", art.System.NbPublic)
	}

	rng := rand.New(rand.NewSource(802))
	pk, vk, err := groth16.Setup(art.System, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(art.System, pk, art.Witness, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := art.PublicInputs()
	if err := groth16.Verify(vk, proof, public); err != nil {
		t.Fatal(err)
	}
	committed := Spec{Committed: true, Slots: 1}
	digest, err := committed.DigestQuantized(q, ck.LayerIndex)
	if err != nil {
		t.Fatal(err)
	}
	if claims, err := committed.Verdict(public, &digest); err != nil || !claims[0] {
		t.Fatalf("committed verdict = %v, %v", claims, err)
	}
}

func TestCommittedVKIsConstantSize(t *testing.T) {
	// The headline: the committed variant's VK must not grow with the
	// model, unlike the public-weights variant.
	p := fixpoint.Params{FracBits: 12, MagBits: 40}
	rng := rand.New(rand.NewSource(803))

	vkSize := func(in, hidden int) (int64, int64) {
		art, err := BenchMLPExtractionCircuit(p, in, hidden, 8, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, vkPub, err := groth16.Setup(art.System, rng)
		if err != nil {
			t.Fatal(err)
		}

		// Committed version of the same shape.
		q, ck := benchMLPNet(p, in, hidden, 8, 2, rng)
		artC, err := CommittedExtractionCircuit(q, ck, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, vkCom, err := groth16.Setup(artC.System, rng)
		if err != nil {
			t.Fatal(err)
		}
		return vkPub.SizeBytes(), vkCom.SizeBytes()
	}

	pubSmall, comSmall := vkSize(6, 8)
	pubBig, comBig := vkSize(24, 16)
	if pubBig <= pubSmall {
		t.Fatal("public-weights VK should grow with the model")
	}
	if comBig != comSmall {
		t.Fatalf("committed VK should be constant: %d vs %d", comSmall, comBig)
	}
	if comBig >= pubBig {
		t.Fatal("committed VK should be smaller than public-weights VK")
	}
}

func TestCommittedRejectsWrongModel(t *testing.T) {
	_, q, key := watermarkedMLP(t, 804)
	ck := QuantizeKey(key, testP)
	art, err := CommittedExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(805))
	pk, vk, err := groth16.Setup(art.System, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(art.System, pk, art.Witness, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := art.PublicInputs()

	// A verifier holding a DIFFERENT model must notice the digest
	// mismatch even though the proof itself is valid.
	q.Layers[0].W[0] += 7
	committed := Spec{Committed: true, Slots: 1}
	digest, err := committed.DigestQuantized(q, ck.LayerIndex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := committed.Verdict(public, &digest); err == nil {
		t.Fatal("digest check passed against a different model")
	}
	q.Layers[0].W[0] -= 7

	// And a forged digest in the public inputs fails the pairing check.
	forged := append([]fr.Element(nil), public...)
	forged[0].SetUint64(12345)
	if err := groth16.Verify(vk, proof, forged); err == nil {
		t.Fatal("forged digest accepted by the proof system")
	}
}

func TestCommittedWitnessCannotSwapWeights(t *testing.T) {
	// Soundness of the binding: change a private weight wire in the
	// witness (keeping the public digest) and the digest constraint must
	// fail.
	_, q, key := watermarkedMLP(t, 806)
	ck := QuantizeKey(key, testP)
	art, err := CommittedExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Weight wires are the first private wires allocated; perturb a
	// handful of private wires near the start and expect violation.
	detected := false
	for off := 0; off < 5; off++ {
		w := append([]fr.Element(nil), art.Witness...)
		idx := art.System.NbPublic + off
		var delta fr.Element
		delta.SetUint64(1)
		w[idx].Add(&w[idx], &delta)
		if ok, _ := art.System.IsSatisfied(w); !ok {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("no constraint guards the committed weights")
	}
}

// benchMLPNet mirrors BenchMLPExtractionCircuit's model construction,
// returning the raw network and key for the committed variant.
func benchMLPNet(p fixpoint.Params, in, hidden, bits, triggers int, rng *rand.Rand) (*nn.QuantizedNetwork, *CircuitKey) {
	q := &nn.QuantizedNetwork{
		Params: p,
		Layers: []nn.QuantizedLayer{
			randQuantDense(rng, p, in, hidden),
			{Kind: "relu", Out: hidden},
		},
	}
	ck := randCircuitKey(rng, p, in, hidden, bits, triggers)
	return q, ck
}
