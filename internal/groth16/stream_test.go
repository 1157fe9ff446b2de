package groth16

import (
	"bytes"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
)

// openStreamed wraps a raw proving-key buffer in a StreamedProvingKey
// with a tiny chunk so the 5-wire cubic system actually exercises the
// chunked MSM path (multiple partial chunks per section).
func openStreamed(t *testing.T, raw []byte, chunk int) *StreamedProvingKey {
	t.Helper()
	spk, err := OpenStreamedProvingKey(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("OpenStreamedProvingKey: %v", err)
	}
	spk.Chunk = chunk
	return spk
}

// TestSetupStreamedMatchesSetup pins the spilled-setup encoding: from
// the same seeded rng, SetupStreamed must emit byte-for-byte the same
// raw file as Setup followed by WriteRawTo, and the same verifying key.
func TestSetupStreamedMatchesSetup(t *testing.T) {
	sys := cubicSystem()

	pk, vk, err := Setup(sys, rand.New(rand.NewSource(90)))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := pk.WriteRawTo(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	svk, err := SetupStreamed(sys, rand.New(rand.NewSource(90)), &got)
	if err != nil {
		t.Fatalf("SetupStreamed: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SetupStreamed bytes diverge from Setup+WriteRawTo (%d vs %d bytes)", got.Len(), want.Len())
	}

	var vkBuf, svkBuf bytes.Buffer
	if _, err := vk.WriteTo(&vkBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := svk.WriteTo(&svkBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vkBuf.Bytes(), svkBuf.Bytes()) {
		t.Fatal("SetupStreamed verifying key diverges from Setup")
	}
}

// TestRawPKSizeBytes checks the size predictor against an actual
// serialized key — the engine's streaming decision rides on it.
func TestRawPKSizeBytes(t *testing.T) {
	sys := cubicSystem()
	pk, _, err := Setup(sys, rand.New(rand.NewSource(91)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := RawPKSizeBytes(sys)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != want {
		t.Fatalf("RawPKSizeBytes = %d, actual encoding = %d", want, buf.Len())
	}

	spk := openStreamed(t, buf.Bytes(), 2)
	if spk.SizeBytes() != want {
		t.Fatalf("StreamedProvingKey.SizeBytes = %d, want %d", spk.SizeBytes(), want)
	}
	if spk.DomainSize() != pk.DomainSize {
		t.Fatalf("DomainSize = %d, want %d", spk.DomainSize(), pk.DomainSize)
	}
}

// TestProveStreamedMatchesProve is the bit-identity oracle at the
// groth16 layer: with the same prover randomness, the streamed prover
// must emit exactly the proof bytes of the in-memory prover, across
// chunk sizes that fragment the 5-point sections differently.
func TestProveStreamedMatchesProve(t *testing.T) {
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rand.New(rand.NewSource(92)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	witness := cubicWitness(3)

	want, err := Prove(sys, pk, witness, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if _, err := want.WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 2, 3, 64} {
		spk := openStreamed(t, raw.Bytes(), chunk)
		got, err := Prove(sys, spk, witness, rand.New(rand.NewSource(93)))
		if err != nil {
			t.Fatalf("chunk=%d: streamed Prove: %v", chunk, err)
		}
		var gotBuf bytes.Buffer
		if _, err := got.WriteTo(&gotBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("chunk=%d: streamed proof bytes diverge from in-memory prover", chunk)
		}
		if err := Verify(vk, got, sys.PublicValues(witness)); err != nil {
			t.Fatalf("chunk=%d: streamed proof rejected: %v", chunk, err)
		}
	}
}

// TestOpenStreamedProvingKeyTruncated checks that a key file cut short
// anywhere — header, mid-section, or one byte shy of the end — is
// rejected at open time, not at prove time.
func TestOpenStreamedProvingKeyTruncated(t *testing.T) {
	sys := cubicSystem()
	pk, _, err := Setup(sys, rand.New(rand.NewSource(94)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	full := raw.Bytes()
	for _, cut := range []int{0, 3, 100, rawPKFixedHeaderSize, len(full) / 2, len(full) - 1} {
		if _, err := OpenStreamedProvingKey(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// TestStreamedCheckShape verifies the streamed key refuses a circuit it
// wasn't set up for, same as the in-memory key.
func TestStreamedCheckShape(t *testing.T) {
	sys := cubicSystem()
	pk, _, err := Setup(sys, rand.New(rand.NewSource(95)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	spk := openStreamed(t, raw.Bytes(), 2)

	// A cubic system with one extra private wire: wire counts no longer
	// match the key's section lengths.
	eager := cubicEager()
	eager.NbWires++
	other, err := r1cs.FromSystem(eager)
	if err != nil {
		t.Fatal(err)
	}
	witness := make([]fr.Element, other.NbWires)
	copy(witness, cubicWitness(3))
	witness[0].SetOne()
	if _, err := Prove(other, spk, witness, rand.New(rand.NewSource(96))); err == nil {
		t.Fatal("Prove accepted a streamed key with mismatched shape")
	}
}
