package core

import (
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/dataset"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

var testP = fixpoint.Params{FracBits: 12, MagBits: 40}

// watermarkedMLP returns a small trained+watermarked MLP, its quantized
// image, and the key.
func watermarkedMLP(t *testing.T, seed int64) (*nn.Network, *nn.QuantizedNetwork, *watermark.Key) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Samples: 240, Dim: 12, Classes: 3, ClusterStd: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	// 32 hidden units: DeepSigns needs enough live post-ReLU dimensions
	// for the non-negative activation means to realise the signature
	// pattern (the paper's layers are 512-wide; 16 is too tight for some
	// seeds).
	net := nn.NewMLP(nn.MLPConfig{In: 12, Hidden: []int{32}, Classes: 3}, rng)
	net.Train(ds.X, ds.Y, nn.TrainConfig{Epochs: 8, BatchSize: 16, LearningRate: 0.1, Silent: true}, rng)

	key, err := watermark.GenerateKey(rng, 1, 0, 32, 8, 4, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := watermark.DefaultEmbedConfig()
	cfg.Epochs = 150
	if err := watermark.Embed(net, key, ds.X, ds.Y, cfg, rng); err != nil {
		t.Fatal(err)
	}
	if _, ber := watermark.Extract(net, key); ber != 0 {
		t.Fatalf("embedding did not converge, BER %v", ber)
	}
	q, err := nn.Quantize(net, testP)
	if err != nil {
		t.Fatal(err)
	}
	return net, q, key
}

func TestExtractionCircuitMatchesSimulator(t *testing.T) {
	_, q, key := watermarkedMLP(t, 300)
	ck := QuantizeKey(key, testP)

	bits, nbErr, err := watermark.ExtractQuantized(q, key)
	if err != nil {
		t.Fatal(err)
	}
	art, err := ExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
		t.Fatalf("extraction circuit unsatisfied at constraint %d", bad)
	}
	// The claim bit (last public input) must be 1 exactly when the
	// simulator reports zero errors.
	pub := art.PublicInputs()
	claim := pub[len(pub)-1]
	var one fr.Element
	one.SetOne()
	if nbErr == 0 && !claim.Equal(&one) {
		t.Fatalf("simulator extracted %v cleanly but circuit claim is %v", bits, claim)
	}
	if nbErr != 0 {
		t.Fatalf("simulator has %d bit errors on a watermarked model", nbErr)
	}
}

func TestExtractionEndToEndProof(t *testing.T) {
	_, q, key := watermarkedMLP(t, 301)
	ck := QuantizeKey(key, testP)
	art, err := ExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(302))
	pl, err := RunPipeline(art, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := groth16.Verify(pl.VK, pl.Proof, art.PublicInputs()); err != nil {
		t.Fatal(err)
	}
	claims, err := Spec{Slots: 1}.Verdict(art.PublicInputs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !claims[0] {
		t.Fatal("ownership claim not validated")
	}
	if pl.Metrics.ProofSize != 128 {
		t.Fatalf("proof size %d, want 128", pl.Metrics.ProofSize)
	}
	if pl.Metrics.NbConstraints == 0 {
		t.Fatal("no constraints recorded")
	}
}

func TestNonWatermarkedModelYieldsClaimZero(t *testing.T) {
	// A model that was never embedded: the circuit must still be
	// satisfiable (the prover can honestly prove extraction ran) but the
	// claim bit comes out 0, so verifiers reject the ownership claim.
	ds, err := dataset.Generate(dataset.Config{
		Samples: 240, Dim: 12, Classes: 3, ClusterStd: 0.25, Seed: 303,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(303))
	net := nn.NewMLP(nn.MLPConfig{In: 12, Hidden: []int{16}, Classes: 3}, rng)
	net.Train(ds.X, ds.Y, nn.TrainConfig{Epochs: 8, BatchSize: 16, LearningRate: 0.1, Silent: true}, rng)
	key, err := watermark.GenerateKey(rng, 1, 0, 16, 8, 4, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := nn.Quantize(net, testP)
	if err != nil {
		t.Fatal(err)
	}
	ck := QuantizeKey(key, testP)
	art, err := ExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
		t.Fatalf("circuit unsatisfied at %d", bad)
	}
	pub := art.PublicInputs()
	claim := pub[len(pub)-1]
	if !claim.IsZero() {
		t.Fatal("unwatermarked model produced claim = 1")
	}
}

func TestExtractionCNN(t *testing.T) {
	// Small CNN: conv first layer, watermark after its ReLU.
	ds, err := dataset.Generate(dataset.Config{
		Samples: 150, Dim: 2 * 8 * 8, Classes: 3, ClusterStd: 0.25, Seed: 304,
		Shape: [3]int{2, 8, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(304))
	net := nn.NewSmallCNN(nn.SmallCNNConfig{
		InC: 2, InH: 8, InW: 8, OutC: 4, K: 3, S: 2, Hidden: 12, Classes: 3,
	}, rng)
	net.Train(ds.X, ds.Y, nn.TrainConfig{Epochs: 6, BatchSize: 16, LearningRate: 0.05, Silent: true}, rng)

	actDim := net.Layers[0].OutputSize()
	key, err := watermark.GenerateKey(rng, 1, 0, actDim, 8, 2, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := watermark.DefaultEmbedConfig()
	cfg.Epochs = 60
	if err := watermark.Embed(net, key, ds.X, ds.Y, cfg, rng); err != nil {
		t.Fatal(err)
	}
	if _, ber := watermark.Extract(net, key); ber != 0 {
		t.Skipf("CNN embedding did not fully converge (BER %v); skipping circuit check", ber)
	}

	q, err := nn.Quantize(net, testP)
	if err != nil {
		t.Fatal(err)
	}
	_, nbErr, err := watermark.ExtractQuantized(q, key)
	if err != nil {
		t.Fatal(err)
	}
	ck := QuantizeKey(key, testP)
	art, err := ExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
		t.Fatalf("CNN extraction circuit unsatisfied at %d", bad)
	}
	pub := art.PublicInputs()
	claim := pub[len(pub)-1]
	var one fr.Element
	one.SetOne()
	if nbErr == 0 && !claim.Equal(&one) {
		t.Fatal("CNN circuit disagrees with simulator")
	}
}

func TestTableICircuitsSatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	p := fixpoint.Params{FracBits: 12, MagBits: 40}

	builders := []func() (*Artifact, error){
		func() (*Artifact, error) { return MatMultCircuit(p, 4, rng) },
		func() (*Artifact, error) {
			return Conv3DCircuit(p, gadgets.Conv3DShape{InC: 2, InH: 6, InW: 6, OutC: 2, K: 3, S: 2}, rng)
		},
		func() (*Artifact, error) { return ReLUCircuit(p, 8, rng) },
		func() (*Artifact, error) { return Average2DCircuit(p, 4, rng) },
		func() (*Artifact, error) { return SigmoidCircuit(p, 4, rng) },
		func() (*Artifact, error) { return HardThresholdingCircuit(p, 8, rng) },
		func() (*Artifact, error) { return BERCircuit(p, 16, 2, rng) },
	}
	for _, build := range builders {
		art, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
			t.Fatalf("%s unsatisfied at constraint %d", art.Name, bad)
		}
		if art.System.NbConstraints() == 0 {
			t.Fatalf("%s has no constraints", art.Name)
		}
	}
}

func TestTableICircuitFullPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	p := fixpoint.Params{FracBits: 12, MagBits: 40}
	art, err := ReLUCircuit(p, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := RunPipeline(art, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := pl.Metrics
	if m.ProofSize != 128 || m.PKSize == 0 || m.VKSize == 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if m.String() == "" || Header() == "" {
		t.Fatal("metrics rendering broken")
	}
}

func TestQuantizeKeyShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	candidates := make([][]float64, 8)
	for i := range candidates {
		candidates[i] = []float64{rng.Float64(), rng.Float64()}
	}
	key, err := watermark.GenerateKey(rng, 1, 0, 16, 8, 4, candidates)
	if err != nil {
		t.Fatal(err)
	}
	ck := QuantizeKey(key, testP)
	if len(ck.Triggers) != len(key.Triggers) || len(ck.A) != len(key.A) {
		t.Fatal("QuantizeKey shape mismatch")
	}
	if len(ck.Signature) != key.NbBits() {
		t.Fatal("signature length mismatch")
	}
}

func TestExtractionCircuitErrors(t *testing.T) {
	_, q, key := watermarkedMLP(t, 308)
	ck := QuantizeKey(key, testP)
	ck.Triggers = nil
	if _, err := ExtractionCircuit(q, ck, 0); err == nil {
		t.Fatal("empty triggers accepted")
	}
	ck2 := QuantizeKey(key, testP)
	ck2.LayerIndex = 99
	if _, err := ExtractionCircuit(q, ck2, 0); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
}
