package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"zkrownn/internal/fixpoint"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/groth16"
	"zkrownn/internal/r1cs"
)

// TestStreamedProveOracleTableI is the end-to-end bit-identity oracle:
// for every Table I circuit (tiny sizes), the out-of-core prover reading
// the raw key from disk encoding must produce byte-for-byte the same
// proof as the in-memory prover under the same randomness, against the
// same verifying key.
func TestStreamedProveOracleTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every Table I circuit")
	}
	p := fixpoint.Params{FracBits: 12, MagBits: 40}
	tinyConv := gadgets.Conv3DShape{InC: 3, InH: 8, InW: 8, OutC: 4, K: 3, S: 2}
	rows := []struct {
		name  string
		build func(rng *rand.Rand) (*Artifact, error)
	}{
		{"matmult", func(rng *rand.Rand) (*Artifact, error) { return MatMultCircuit(p, 8, rng) }},
		{"conv3d", func(rng *rand.Rand) (*Artifact, error) { return Conv3DCircuit(p, tinyConv, rng) }},
		{"relu", func(rng *rand.Rand) (*Artifact, error) { return ReLUCircuit(p, 16, rng) }},
		{"average2d", func(rng *rand.Rand) (*Artifact, error) { return Average2DCircuit(p, 8, rng) }},
		{"sigmoid", func(rng *rand.Rand) (*Artifact, error) { return SigmoidCircuit(p, 8, rng) }},
		{"threshold", func(rng *rand.Rand) (*Artifact, error) { return HardThresholdingCircuit(p, 16, rng) }},
		{"ber", func(rng *rand.Rand) (*Artifact, error) { return BERCircuit(p, 16, 2, rng) }},
		{"mnist-mlp", func(rng *rand.Rand) (*Artifact, error) {
			return BenchMLPExtractionCircuit(p, 32, 16, 8, 2, rng)
		}},
		{"cifar10-cnn", func(rng *rand.Rand) (*Artifact, error) {
			return BenchCNNExtractionCircuit(p, tinyConv, 8, 2, rng)
		}},
		{"batched-extraction-k1", func(rng *rand.Rand) (*Artifact, error) {
			return BenchBatchedMLPExtractionCircuit(p, 32, 16, 8, 2, 1, rng)
		}},
		{"batched-extraction-k4", func(rng *rand.Rand) (*Artifact, error) {
			return BenchBatchedMLPExtractionCircuit(p, 32, 16, 8, 2, 4, rng)
		}},
	}

	for i, row := range rows {
		row := row
		seed := int64(5000 + i)
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			art, err := row.build(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			pk, vk, err := groth16.Setup(art.System, rand.New(rand.NewSource(seed+1)))
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			var raw bytes.Buffer
			if _, err := pk.WriteRawTo(&raw); err != nil {
				t.Fatal(err)
			}
			spk, err := groth16.OpenStreamedProvingKey(bytes.NewReader(raw.Bytes()))
			if err != nil {
				t.Fatalf("open streamed key: %v", err)
			}
			// Small chunk so even tiny sections fragment across windows.
			spk.Chunk = 64

			want, err := groth16.Prove(art.System, pk, art.Witness, rand.New(rand.NewSource(seed+2)))
			if err != nil {
				t.Fatalf("in-memory prove: %v", err)
			}
			got, err := groth16.Prove(art.System, spk, art.Witness, rand.New(rand.NewSource(seed+2)))
			if err != nil {
				t.Fatalf("streamed prove: %v", err)
			}

			var wantBuf, gotBuf bytes.Buffer
			if _, err := want.WriteTo(&wantBuf); err != nil {
				t.Fatal(err)
			}
			if _, err := got.WriteTo(&gotBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
				t.Fatal("streamed proof bytes diverge from in-memory prover")
			}
			if err := groth16.Verify(vk, got, art.System.PublicValues(art.Witness)); err != nil {
				t.Fatalf("streamed proof rejected: %v", err)
			}

			// Full out-of-core: constraint rows from a CSR section file,
			// witness solved into a disk-backed spill store with a
			// minimal page budget. Still byte-identical.
			dir := t.TempDir()
			csPath := filepath.Join(dir, "sys.csr")
			if err := r1cs.WriteCompiledSystemFile(csPath, art.System); err != nil {
				t.Fatalf("write CSR file: %v", err)
			}
			csf, err := r1cs.OpenCompiledSystemFile(csPath)
			if err != nil {
				t.Fatalf("open CSR file: %v", err)
			}
			defer csf.Close()
			wf, err := r1cs.NewWitnessFile(dir, art.System.NbWires, 1)
			if err != nil {
				t.Fatalf("witness spill store: %v", err)
			}
			defer wf.Close()
			if err := art.System.SolveSpilled(art.Assignment.Public, art.Assignment.Secret, wf, nil); err != nil {
				t.Fatalf("spilled solve: %v", err)
			}
			spilled, err := groth16.ProveSpilled(csf, spk, wf, rand.New(rand.NewSource(seed+2)))
			if err != nil {
				t.Fatalf("fully out-of-core prove: %v", err)
			}
			var spilledBuf bytes.Buffer
			if _, err := spilled.WriteTo(&spilledBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBuf.Bytes(), spilledBuf.Bytes()) {
				t.Fatal("fully out-of-core proof bytes diverge from in-memory prover")
			}
		})
	}
}
