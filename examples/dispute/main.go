// Dispute: the paper's motivating legal scenario (Figure 1 and §I).
//
// Alice trains and watermarks a model. Mallory steals it and deploys it
// as her own. Alice — the prover P — generates ONE non-interactive
// ownership proof; because Groth16 proofs are publicly verifiable, the
// judge, Mallory's counsel, and any number of expert witnesses — the
// verifiers V — each check it independently from the serialized
// artifacts alone, in milliseconds, without Alice revealing her trigger
// keys or watermark and without any further interaction.
//
// The example also shows the negative case: Alice's key, fixed before
// Bob's unrelated model existed, does not extract from it, so no claim-1
// proof exists for that key. The proof does not name the key, though:
// nothing public commits to it, so a key chosen after a model is seen
// can be made to extract from any model (ROADMAP F1, mended by item 20).
//
//	go run ./examples/dispute
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"zkrownn"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
)

func main() {
	rng := rand.New(rand.NewSource(1234))

	fmt.Println("── Act 1: Alice trains and watermarks her model ──")
	ds, err := zkrownn.SyntheticMNIST(400, 99)
	if err != nil {
		log.Fatal(err)
	}
	for i := range ds.X {
		ds.X[i] = ds.X[i][:32] // compact demo dimensions
	}
	ds.Dim = 32
	alice := zkrownn.NewMLP(ds.Dim, []int{48}, ds.Classes, rng)
	zkrownn.Train(alice, ds, zkrownn.TrainOptions{Epochs: 10, BatchSize: 16, LearningRate: 0.1}, rng)
	aliceKey, err := zkrownn.GenerateKey(alice, ds, zkrownn.KeyOptions{Bits: 16, Triggers: 4}, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := zkrownn.EmbedWatermark(alice, aliceKey, ds, zkrownn.EmbedOptions{Epochs: 80}, rng); err != nil {
		log.Fatal(err)
	}
	_, ber := zkrownn.ExtractWatermark(alice, aliceKey)
	fmt.Printf("   watermark embedded, BER = %.3f\n", ber)

	fmt.Println("── Act 2: Mallory deploys a stolen copy; Alice proves ownership ──")
	stolen := copyModel(alice) // Mallory's deployment M' = M
	circuit, _, vk, proof, err := zkrownn.ProveModelOwnership(stolen, aliceKey, zkrownn.DefaultFixedPoint, nil)
	if err != nil {
		log.Fatal(err)
	}
	public := zkrownn.PublicInputs(circuit)

	// Alice publishes exactly three artifacts.
	var proofWire, vkWire bytes.Buffer
	if _, err := proof.WriteTo(&proofWire); err != nil {
		log.Fatal(err)
	}
	if _, err := vk.WriteTo(&vkWire); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   Alice sends: proof (%d B), verifying key (%.1f KB), public inputs (%d field elements)\n",
		proofWire.Len(), float64(vkWire.Len())/1e3, len(public))

	fmt.Println("── Act 3: every party verifies independently ──")
	for _, party := range []string{"judge", "Mallory's counsel", "expert witness"} {
		// Each party deserializes from the wire — no shared state with
		// Alice, no interaction.
		var p2 groth16.Proof
		if _, err := p2.ReadFrom(bytes.NewReader(proofWire.Bytes())); err != nil {
			log.Fatal(err)
		}
		var vk2 groth16.VerifyingKey
		if _, err := vk2.ReadFrom(bytes.NewReader(vkWire.Bytes())); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		ok, err := zkrownn.VerifyOwnership(&vk2, &p2, public)
		if err != nil {
			log.Fatalf("%s: %v", party, err)
		}
		fmt.Printf("   %-18s accepts=%v (%.1f ms)\n", party, ok, float64(time.Since(start).Microseconds())/1e3)
	}

	fmt.Println("── Act 4: the claim fails against an innocent model ──")
	bobRng := rand.New(rand.NewSource(777))
	bob := zkrownn.NewMLP(ds.Dim, []int{48}, ds.Classes, bobRng)
	zkrownn.Train(bob, ds, zkrownn.TrainOptions{Epochs: 10, BatchSize: 16, LearningRate: 0.1}, bobRng)
	_, _, _, _, err = zkrownn.ProveModelOwnership(bob, aliceKey, zkrownn.DefaultFixedPoint, nil)
	if err == zkrownn.ErrNotWatermarked {
		fmt.Println("   Alice's key does not extract from Bob's model: no claim-1 proof exists for it ✓")
	} else if err != nil {
		log.Fatal(err)
	} else {
		log.Fatal("ownership proof against an innocent model should not exist")
	}

	fmt.Println("── Act 5: a forged claim bit is rejected ──")
	// Mallory tries to pass Alice's proof with tampered public inputs.
	forged := append([]fr.Element(nil), public...)
	forged[len(forged)-1].SetUint64(1) // claim stays 1 but weights differ
	forged[0].SetUint64(424242)
	ok, err := zkrownn.VerifyOwnership(vk, proof, forged)
	if err == nil && ok {
		log.Fatal("forged public inputs accepted")
	}
	fmt.Println("   tampered public inputs rejected by the pairing check ✓")
}

// copyModel round-trips a model through serialization — exactly what a
// model thief obtains.
func copyModel(m *zkrownn.Model) *zkrownn.Model {
	var buf bytes.Buffer
	if err := zkrownn.SaveModel(m, &buf); err != nil {
		log.Fatal(err)
	}
	out, err := zkrownn.LoadModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
