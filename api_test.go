package zkrownn

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// smallWorkflow drives the whole public API on compact dimensions.
func smallWorkflow(t *testing.T, seed int64) (*Model, *WatermarkKey, *Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, err := SyntheticMNIST(300, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		ds.X[i] = ds.X[i][:16]
	}
	ds.Dim = 16

	m := NewMLP(16, []int{32}, ds.Classes, rng)
	Train(m, ds, TrainOptions{Epochs: 8, BatchSize: 16, LearningRate: 0.1}, rng)

	key, err := GenerateKey(m, ds, KeyOptions{Bits: 8, Triggers: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := EmbedWatermark(m, key, ds, EmbedOptions{Epochs: 100}, rng); err != nil {
		t.Fatal(err)
	}
	return m, key, ds
}

func TestPublicAPIEndToEnd(t *testing.T) {
	m, key, _ := smallWorkflow(t, 500)
	_, ber := ExtractWatermark(m, key)
	if ber != 0 {
		t.Fatalf("BER %.3f after embedding", ber)
	}

	circuit, pk, vk, proof, err := ProveModelOwnership(m, key, DefaultFixedPoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pk == nil || vk == nil {
		t.Fatal("missing keys")
	}
	ok, err := VerifyOwnership(vk, proof, PublicInputs(circuit))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ownership not verified")
	}
	if proof.PayloadSize() != 128 {
		t.Fatalf("proof size %d", proof.PayloadSize())
	}
}

func TestPublicAPIRejectsUnwatermarked(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	ds, err := SyntheticMNIST(200, 501)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		ds.X[i] = ds.X[i][:16]
	}
	ds.Dim = 16
	m := NewMLP(16, []int{32}, ds.Classes, rng)
	Train(m, ds, TrainOptions{Epochs: 5, BatchSize: 16, LearningRate: 0.1}, rng)
	key, err := GenerateKey(m, ds, KeyOptions{Bits: 8, Triggers: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ProveModelOwnership(m, key, DefaultFixedPoint, nil); err != ErrNotWatermarked {
		t.Fatalf("expected ErrNotWatermarked, got %v", err)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, key, _ := smallWorkflow(t, 502)
	var buf bytes.Buffer
	if err := SaveModel(m, &buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model must extract the same watermark.
	b1, ber1 := ExtractWatermark(m, key)
	b2, ber2 := ExtractWatermark(m2, key)
	if ber1 != ber2 {
		t.Fatal("BER changed across serialization")
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("extracted bits changed across serialization")
		}
	}
}

func TestRunPipelineMetrics(t *testing.T) {
	m, key, _ := smallWorkflow(t, 503)
	q, err := Quantize(m, DefaultFixedPoint)
	if err != nil {
		t.Fatal(err)
	}
	circuit, err := BuildOwnershipCircuit(q, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(504))
	met, err := RunPipeline(circuit, rng)
	if err != nil {
		t.Fatal(err)
	}
	if met.NbConstraints == 0 || met.ProofSize != 128 || met.SetupTime == 0 {
		t.Fatalf("bad metrics %+v", met)
	}
	if met.VerifyTime == 0 || met.ProveTime == 0 {
		t.Fatal("timings missing")
	}
}

func TestNewModelBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	mlp := NewMNISTMLP(rng)
	if got := len(mlp.Forward(make([]float64, 784))); got != 10 {
		t.Fatalf("MNIST MLP output %d", got)
	}
	cnn := NewCIFAR10CNN(rng)
	if got := len(cnn.Forward(make([]float64, 3*32*32))); got != 10 {
		t.Fatalf("CIFAR CNN output %d", got)
	}
	ds, err := SyntheticCIFAR(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 3*32*32 || ds.Classes != 10 {
		t.Fatal("CIFAR-like dataset shape wrong")
	}
}

func TestCommittedOwnershipAPI(t *testing.T) {
	m, key, _ := smallWorkflow(t, 520)
	q, err := Quantize(m, DefaultFixedPoint)
	if err != nil {
		t.Fatal(err)
	}
	circuit, err := BuildCommittedOwnershipCircuit(q, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(521))
	pk, vk, err := Setup(circuit, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := ProveOwnership(circuit, pk, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := PublicInputs(circuit)
	if len(public) != 2 {
		t.Fatalf("committed circuit has %d public inputs, want 2", len(public))
	}
	if err := VerifyCommittedOwnership(vk, proof, public, q, key.LayerIndex); err != nil {
		t.Fatal(err)
	}
	// The digest the verifier computes must match the circuit's public
	// input.
	d, err := ModelDigest(q, key.LayerIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !public[0].Equal(&d) {
		t.Fatal("digest mismatch")
	}
	// Verification against a tampered model must fail.
	q.Layers[0].W[0]++
	if err := VerifyCommittedOwnership(vk, proof, public, q, key.LayerIndex); err == nil {
		t.Fatal("tampered model accepted")
	}
}

func TestBatchVerifyOwnershipAPI(t *testing.T) {
	m, key, _ := smallWorkflow(t, 522)
	circuit, pk, vk, _, err := ProveModelOwnership(m, key, DefaultFixedPoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(523))
	var proofs []*Proof
	var publics [][]fr.Element
	for i := 0; i < 3; i++ {
		p, err := ProveOwnership(circuit, pk, rng)
		if err != nil {
			t.Fatal(err)
		}
		proofs = append(proofs, p)
		publics = append(publics, PublicInputs(circuit))
	}
	ok, err := BatchVerifyOwnership(vk, proofs, publics, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("batch ownership not verified")
	}
	// Corrupt one claim bit: the batch must reject or report claim 0.
	publics[1][len(publics[1])-1].SetZero()
	ok, err = BatchVerifyOwnership(vk, proofs, publics, rng)
	if err == nil && ok {
		t.Fatal("batch with corrupted claim accepted")
	}
}

// TestBatchedOwnershipAPI drives the public batched quartet: a two-slot
// circuit, slot 1 rebound to a foreign model of the same architecture,
// one proof on an engine, and both readers of its per-slot claims.
func TestBatchedOwnershipAPI(t *testing.T) {
	m, key, ds := smallWorkflow(t, 524)
	q, err := Quantize(m, DefaultFixedPoint)
	if err != nil {
		t.Fatal(err)
	}
	circuit, err := BuildBatchedOwnershipCircuit(q, key, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Quantize(NewMLP(16, []int{32}, ds.Classes, rand.New(rand.NewSource(525))), DefaultFixedPoint)
	if err != nil {
		t.Fatal(err)
	}
	req, err := BindSuspectModels(circuit, []*QuantizedModel{nil, foreign}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{Rand: rand.New(rand.NewSource(526))})
	defer eng.Close()
	res, err := eng.Prove(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false}
	claims, err := VerifyBatchedOwnership(res.Keys.VK, res.Proof, res.PublicInputs, 2)
	if err != nil || !slices.Equal(claims, want) {
		t.Fatalf("VerifyBatchedOwnership = %v, %v; want %v", claims, err, want)
	}
	if claims, err := OwnershipClaims(circuit, res.PublicInputs); err != nil || !slices.Equal(claims, want) {
		t.Fatalf("OwnershipClaims = %v, %v; want %v", claims, err, want)
	}
}
