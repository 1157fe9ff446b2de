// Package zkrownn is a from-scratch Go implementation of ZKROWNN
// ("Zero Knowledge Right of Ownership for Neural Networks", DAC 2023):
// an end-to-end framework that lets a model owner prove, in zero
// knowledge, that a deployed neural network contains their DeepSigns
// watermark — without revealing the trigger keys, the projection matrix,
// or the watermark bits.
//
// The pipeline, mirroring the paper's Figure 1:
//
//  1. Train a model and embed a watermark (EmbedWatermark).
//  2. Build the zero-knowledge extraction circuit for the suspect model
//     (BuildOwnershipCircuit) — Algorithm 1: zkFeedForward → zkAverage →
//     zkSigmoid → zkHardThresholding → zkBER.
//  3. Run the one-time trusted setup (Setup), producing a proving key
//     for the owner and a small verifying key for everyone else.
//  4. Generate the ownership proof (ProveOwnership) — a 128-byte
//     Groth16 proof.
//  5. Any third party verifies in milliseconds (VerifyOwnership).
//
// Everything below the API — the BN254 pairing curve, the Groth16
// proof system, the circuit frontend, the DNN substrate, and DeepSigns
// watermarking — is implemented in this repository using only the Go
// standard library.
package zkrownn

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/core"
	"zkrownn/internal/dataset"
	"zkrownn/internal/engine"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/service"
	"zkrownn/internal/watermark"
)

// Re-exported substrate types. Aliases keep the public surface thin
// while the implementations stay in internal packages.
type (
	// Model is a trainable feed-forward network.
	Model = nn.Network
	// QuantizedModel is the fixed-point image of a Model, the exact
	// arithmetic the zkSNARK circuit evaluates.
	QuantizedModel = nn.QuantizedNetwork
	// WatermarkKey is the owner's secret watermark material (triggers,
	// projection matrix, signature, embedded layer).
	WatermarkKey = watermark.Key
	// FixedPoint selects the fixed-point format shared by circuits and
	// the reference extraction pipeline.
	FixedPoint = fixpoint.Params
	// Proof is a 128-byte Groth16 ownership proof.
	Proof = groth16.Proof
	// ProvingKey is the owner's share of the structured reference string.
	ProvingKey = groth16.ProvingKey
	// VerifyingKey is the public verification material any third party
	// needs to check ownership proofs.
	VerifyingKey = groth16.VerifyingKey
	// Instance is a JSON-marshalable public-input vector (versioned
	// envelope of signed decimals) — the instance half of a proof-service
	// API payload and of the CLI's public.json.
	Instance = groth16.PublicInputs
	// Circuit is a compiled extraction circuit (CSR constraint matrices
	// plus a recorded witness solver) together with its build-time input
	// assignment and witness. Compile once per architecture; prove many.
	Circuit = core.Artifact
	// Dataset is a labelled sample collection.
	Dataset = dataset.Dataset
	// PipelineMetrics reports Table I-style measurements for one circuit.
	PipelineMetrics = core.Metrics
)

// DefaultFixedPoint is the 16-fraction-bit format used throughout the
// paper-scale benchmarks.
var DefaultFixedPoint = fixpoint.Default16

// NewMNISTMLP builds the paper's Table II MNIST architecture
// (784 - FC512 - FC512 - FC10).
func NewMNISTMLP(rng *rand.Rand) *Model { return nn.NewMNISTMLP(rng) }

// NewCIFAR10CNN builds the paper's Table II CIFAR-10 architecture.
func NewCIFAR10CNN(rng *rand.Rand) *Model { return nn.NewCIFAR10CNN(rng) }

// NewMLP builds an arbitrary ReLU multilayer perceptron.
func NewMLP(in int, hidden []int, classes int, rng *rand.Rand) *Model {
	return nn.NewMLP(nn.MLPConfig{In: in, Hidden: hidden, Classes: classes}, rng)
}

// SyntheticMNIST generates a deterministic MNIST-shaped synthetic
// dataset (the offline substitution documented in DESIGN.md).
func SyntheticMNIST(samples int, seed int64) (*Dataset, error) {
	return dataset.Generate(dataset.MNISTLike(samples, seed))
}

// SyntheticCIFAR generates a CIFAR-shaped synthetic dataset.
func SyntheticCIFAR(samples int, seed int64) (*Dataset, error) {
	return dataset.Generate(dataset.CIFARLike(samples, seed))
}

// TrainOptions configures plain task training.
type TrainOptions struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	Logf         func(format string, args ...any)
}

// Train fits the model to the dataset with SGD.
func Train(m *Model, ds *Dataset, opt TrainOptions, rng *rand.Rand) {
	cfg := nn.TrainConfig{
		Epochs:       opt.Epochs,
		BatchSize:    opt.BatchSize,
		LearningRate: opt.LearningRate,
		Silent:       opt.Logf == nil,
		Logf:         opt.Logf,
	}
	m.Train(ds.X, ds.Y, cfg, rng)
}

// KeyOptions configures watermark key generation.
type KeyOptions struct {
	// LayerIndex is l_wm (the activation read by extraction), normally
	// the ReLU after the first hidden layer — index 1 in this package's
	// model builders.
	LayerIndex int
	// TargetClass selects the Gaussian class carrying the watermark.
	TargetClass int
	// Bits is the signature length (the paper embeds 32 bits).
	Bits int
	// Triggers is the trigger-set size |X_key|.
	Triggers int
}

// GenerateKey draws a fresh watermark key for the model over the
// dataset's TargetClass samples.
func GenerateKey(m *Model, ds *Dataset, opt KeyOptions, rng *rand.Rand) (*WatermarkKey, error) {
	if opt.LayerIndex <= 0 {
		opt.LayerIndex = 1
	}
	if opt.Bits <= 0 {
		opt.Bits = 32
	}
	if opt.Triggers <= 0 {
		opt.Triggers = 4
	}
	actDim := m.Layers[opt.LayerIndex].OutputSize()
	return watermark.GenerateKey(rng, opt.LayerIndex, opt.TargetClass,
		actDim, opt.Bits, opt.Triggers, ds.OfClass(opt.TargetClass))
}

// EmbedOptions configures watermark embedding (DeepSigns fine-tuning).
type EmbedOptions struct {
	Epochs       int
	LearningRate float64
	LambdaWM     float64
	Logf         func(format string, args ...any)
}

// EmbedWatermark fine-tunes the model until the watermark extracts with
// zero bit error rate and a quantization-robust margin.
func EmbedWatermark(m *Model, key *WatermarkKey, ds *Dataset, opt EmbedOptions, rng *rand.Rand) error {
	cfg := watermark.DefaultEmbedConfig()
	if opt.Epochs > 0 {
		cfg.Epochs = opt.Epochs
	}
	if opt.LearningRate > 0 {
		cfg.LearningRate = opt.LearningRate
	}
	if opt.LambdaWM > 0 {
		cfg.LambdaWM = opt.LambdaWM
	}
	if opt.Logf != nil {
		cfg.Silent = false
		cfg.Logf = opt.Logf
	}
	return watermark.Embed(m, key, ds.X, ds.Y, cfg, rng)
}

// ExtractWatermark runs plain (out-of-circuit) extraction, returning the
// recovered bits and BER — the reference the zero-knowledge proof
// attests to.
func ExtractWatermark(m *Model, key *WatermarkKey) (bits []int, ber float64) {
	return watermark.Extract(m, key)
}

// Quantize converts a model to the fixed-point form used in circuits.
func Quantize(m *Model, p FixedPoint) (*QuantizedModel, error) {
	return nn.Quantize(m, p)
}

// BuildOwnershipCircuit compiles Algorithm 1 for the given quantized
// model and key. maxErrors is the BER tolerance θ·N (0 demands an exact
// watermark match). The suspect model's weights become public inputs;
// the key material stays private.
//
// Compilation happens once per architecture: the returned Circuit holds
// a compiled constraint system (CSR matrices plus a recorded witness
// solver) that can be proven repeatedly — against the build-time inputs
// or, via BindSuspectModel, against other models of the same
// architecture — without being rebuilt.
func BuildOwnershipCircuit(q *QuantizedModel, key *WatermarkKey, maxErrors int) (*Circuit, error) {
	return core.Spec{Slots: 1, MaxErrors: maxErrors}.CompileQuantized(q, key)
}

// BindSuspectModel rebinds a compiled (non-committed) ownership
// circuit's public weight inputs to a suspect model of the same
// architecture, returning an engine request that re-derives the witness
// with the circuit's recorded solver program and proves it — the
// solve-many path: no circuit recompilation, however many suspects are
// proved. rng overrides the engine's randomness (nil for the default).
func BindSuspectModel(c *Circuit, q *QuantizedModel, rng io.Reader) (ProveRequest, error) {
	asg, err := core.BindSuspectInputs(c, q)
	if err != nil {
		return ProveRequest{}, err
	}
	return c.RequestFor(asg, rng), nil
}

// BuildBatchedOwnershipCircuit compiles Algorithm 1 with `slots`
// suspect-model weight slots sharing one secret watermark key: ONE
// Groth16 proof then attests `slots` independent ownership claims. All
// slots start bound to q's weights; BindSuspectModels rebinds
// individual slots to same-architecture suspects without recompiling.
// The last `slots` public inputs are the per-slot claim bits
// (OwnershipClaims decodes them). slots = 1 is exactly
// BuildOwnershipCircuit.
func BuildBatchedOwnershipCircuit(q *QuantizedModel, key *WatermarkKey, maxErrors, slots int) (*Circuit, error) {
	return core.Spec{Slots: slots, MaxErrors: maxErrors}.CompileQuantized(q, key)
}

// BindSuspectModels rebinds a batched ownership circuit's per-slot
// weight inputs — suspects[s] replaces slot s, nil keeps the model the
// circuit was compiled with — and returns the engine request proving
// the whole bundle. len(suspects) must equal c.Slots().
func BindSuspectModels(c *Circuit, suspects []*QuantizedModel, rng io.Reader) (ProveRequest, error) {
	asg, err := core.BindSuspectSlots(c, suspects)
	if err != nil {
		return ProveRequest{}, err
	}
	return c.RequestFor(asg, rng), nil
}

// OwnershipClaims decodes the per-slot ownership verdicts from a
// (batched) extraction instance: the trailing c.Slots() public inputs,
// in slot order.
func OwnershipClaims(c *Circuit, public []fr.Element) ([]bool, error) {
	return core.Spec{Slots: c.Slots()}.Verdict(public, nil)
}

// VerifyBatchedOwnership checks one proof carrying many ownership
// claims: the Groth16 verification must pass, and the returned slice
// reports each slot's claim bit. A nil error with a false entry means
// "the watermark did not extract from that suspect" — a sound proof of
// a failed claim, exactly what an arbiter wants for that slot.
func VerifyBatchedOwnership(vk *VerifyingKey, proof *Proof, public []fr.Element, slots int) ([]bool, error) {
	if slots < 1 {
		return nil, fmt.Errorf("zkrownn: claim slots must be >= 1, got %d", slots)
	}
	if err := groth16.Verify(vk, proof, public); err != nil {
		return nil, err
	}
	return core.Spec{Slots: slots}.Verdict(public, nil)
}

// Setup runs the one-time Groth16 trusted setup for a circuit.
// rng supplies the toxic-waste randomness (crypto/rand when nil).
func Setup(c *Circuit, rng io.Reader) (*ProvingKey, *VerifyingKey, error) {
	return groth16.Setup(c.System, rng)
}

// ProveOwnership generates the ownership proof for a circuit whose
// witness was built from the owner's private key material.
func ProveOwnership(c *Circuit, pk *ProvingKey, rng io.Reader) (*Proof, error) {
	return groth16.Prove(c.System, pk, c.Witness, rng)
}

// PublicInputs returns the circuit's instance (model weights and the
// claim bit) in the order VerifyOwnership expects.
func PublicInputs(c *Circuit) []fr.Element { return c.PublicInputs() }

// VerifyOwnership checks a single-slot ownership proof: the proof must
// verify, and its claim bit — the last public input — is the verdict.
// A bundle's other slots are not read. The instance is read before the
// pairing, so one too short to carry a claim costs no verification.
// Any third party holding the verifying key and the public model can
// run this in milliseconds.
func VerifyOwnership(vk *VerifyingKey, proof *Proof, public []fr.Element) (bool, error) {
	claims, err := core.Spec{Slots: 1}.Verdict(public, nil)
	if err != nil {
		return false, err
	}
	if err := groth16.Verify(vk, proof, public); err != nil {
		return false, err
	}
	return claims[0], nil
}

// RunPipeline executes setup → prove → verify for any circuit and
// collects the paper's Table I metrics.
func RunPipeline(c *Circuit, rng io.Reader) (*PipelineMetrics, error) {
	pl, err := core.RunPipeline(c, rng)
	if err != nil {
		return nil, err
	}
	return &pl.Metrics, nil
}

// SaveModel / LoadModel persist models as JSON.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }
func LoadModel(r io.Reader) (*Model, error) { return nn.Load(r) }

// ErrNotWatermarked is returned by helpers when extraction fails on a
// model that was expected to carry the watermark.
var ErrNotWatermarked = errors.New("zkrownn: watermark does not extract with BER 0")

// ProveModelOwnership is the one-call convenience path: quantize, build
// the circuit, set up, prove, and return everything a dispute needs.
// It fails with ErrNotWatermarked when the fixed-point extraction does
// not reproduce the signature (maxErrors = 0).
func ProveModelOwnership(m *Model, key *WatermarkKey, p FixedPoint, rng io.Reader) (*Circuit, *ProvingKey, *VerifyingKey, *Proof, error) {
	q, err := nn.Quantize(m, p)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if _, nbErr, err := watermark.ExtractQuantized(q, key); err != nil {
		return nil, nil, nil, nil, err
	} else if nbErr != 0 {
		return nil, nil, nil, nil, ErrNotWatermarked
	}
	circuit, err := BuildOwnershipCircuit(q, key, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pk, vk, err := Setup(circuit, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	proof, err := ProveOwnership(circuit, pk, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return circuit, pk, vk, proof, nil
}

// --- Extensions beyond the paper ---

// BuildCommittedOwnershipCircuit compiles the committed-model variant of
// Algorithm 1: the suspect model's weights stay private, tied to a
// public Fiat-Shamir digest that verifiers recompute from the public
// model. Verifying keys become constant-size (~500 B) and verification
// takes milliseconds regardless of model size, removing the paper's
// noted VK-growth drawback (its MNIST-MLP verifying key is 16 MB).
//
// The digest does not bind the weights: a prover can pick private
// weights that match the digest of an unrelated public model and still
// carry a watermarked model's claim (ROADMAP F2, which item 21 mends by
// replacing this path).
func BuildCommittedOwnershipCircuit(q *QuantizedModel, key *WatermarkKey, maxErrors int) (*Circuit, error) {
	return core.Spec{Committed: true, Slots: 1, MaxErrors: maxErrors}.CompileQuantized(q, key)
}

// ModelDigest returns the Fiat-Shamir digest a committed-model proof
// names for the public model prefix (layers 0..layerIndex). Verifiers
// compare it against the first public input of a committed proof.
func ModelDigest(q *QuantizedModel, layerIndex int) (fr.Element, error) {
	return core.Spec{Committed: true}.DigestQuantized(q, layerIndex)
}

// VerifyCommittedOwnership verifies a committed-model ownership proof
// against the public model: the Groth16 check, then the digest in the
// first public input and the claim bit.
func VerifyCommittedOwnership(vk *VerifyingKey, proof *Proof, public []fr.Element, q *QuantizedModel, layerIndex int) error {
	if err := groth16.Verify(vk, proof, public); err != nil {
		return err
	}
	spec := core.Spec{Committed: true, Slots: 1}
	digest, err := spec.DigestQuantized(q, layerIndex)
	if err != nil {
		return err
	}
	claims, err := spec.Verdict(public, &digest)
	if err != nil {
		return err
	}
	if !claims[0] {
		return errors.New("zkrownn: ownership claim is 0")
	}
	return nil
}

// --- Prover-engine service entry points ---
//
// The one-shot helpers above re-run trusted setup on every call. A
// long-lived service — a dispute-resolution endpoint proving ownership
// for many models of the same architecture, say — should instead hold an
// Engine: keys are cached by circuit digest (in memory, and on disk when
// EngineOptions.CacheDir is set), proofs fan out over a worker pool, and
// verification batches into one pairing product.

type (
	// Engine is the concurrent, cache-aware prover engine.
	Engine = engine.Engine
	// EngineOptions configures NewEngine (cache bounds, persistence
	// directory, worker count, randomness source).
	EngineOptions = engine.Options
	// ProveRequest is one proving job for Engine.Prove or ProveMany:
	// Circuit.Request proves a circuit's build-time inputs,
	// BindSuspectModel(s) a suspect's.
	ProveRequest = engine.Request
	// ProveResult reports one job's proof, keys, and per-stage timings.
	ProveResult = engine.Result
	// EngineStats snapshots the engine's cache and timing counters.
	EngineStats = engine.Stats
)

// NewEngine builds a prover engine. The zero Options value gives a
// memory-only cache and one prover worker per core.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// ErrEngineClosed is the sentinel every Engine entry point returns
// after Close — the signal a service front-end maps to "shutting down".
var ErrEngineClosed = engine.ErrClosed

// --- Proof service ---
//
// The proof service puts the engine on the network: an HTTP JSON API
// with a digest-keyed model/VK registry, an async prove-job queue with
// backpressure, and a verifier pool that batches under load.
// cmd/zkrownn-server is the standalone binary; zkrownn/client is the Go
// client; examples/proof_service shows the full owner → verifier round
// trip.

type (
	// ProofService is the HTTP ownership-proof server (an http.Handler).
	ProofService = service.Server
	// ProofServiceOptions configures NewProofService (registry
	// directory, queue depth, engine options). Scheduling has no knob:
	// the prove and verify pools size themselves from the engine's
	// worker count and GOMAXPROCS.
	ProofServiceOptions = service.Options
)

// NewProofService builds a proof service and starts its prove and
// verify workers. Mount it on any mux / http.Server and remember to call
// Close for a graceful drain.
func NewProofService(opts ProofServiceOptions) (*ProofService, error) {
	return service.New(opts)
}

// BatchVerifyOwnership verifies many single-slot proofs under one
// verifying key with a single combined pairing product (~3× faster than
// verifying each proof individually) and then checks every claim bit,
// the last public input of each instance. A bundle's other slots are
// not read.
func BatchVerifyOwnership(vk *VerifyingKey, proofs []*Proof, publicInputs [][]fr.Element, rng io.Reader) (bool, error) {
	if err := groth16.BatchVerify(vk, proofs, publicInputs, rng); err != nil {
		return false, err
	}
	for _, pub := range publicInputs {
		if claims, err := (core.Spec{Slots: 1}).Verdict(pub, nil); err != nil || !claims[0] {
			return false, nil
		}
	}
	return true, nil
}

// --- Proof aggregation ---

type (
	// AggregateProof is an O(log N) SnarkPack-style fold of N ownership
	// proofs under one verifying key — the auditable artifact a registry
	// files instead of N separate proofs.
	AggregateProof = groth16.AggregateProof
	// AggregateVerifierKey is the inner-pairing-product commitment key an
	// aggregation artifact must be checked against; Engine.AggregateMany
	// and the service return it beside every artifact they issue.
	AggregateVerifierKey = ipp.VerifierKey
)

// VerifyAggregateOwnership checks a proof-of-proofs: the artifact is
// accepted exactly when every folded proof verifies under vk with its
// instance — the O(log N) equivalent of BatchVerifyOwnership.
func VerifyAggregateOwnership(svk *AggregateVerifierKey, vk *VerifyingKey, agg *AggregateProof, publicInputs [][]fr.Element) error {
	return groth16.VerifyAggregate(svk, vk, agg, publicInputs)
}
