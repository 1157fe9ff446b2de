package groth16

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zkrownn/internal/r1cs/r1cstest"
)

// Golden wire-format vectors.
//
// The registry persists verifying keys, the client exchanges JSON
// envelopes, and dispute transcripts file binary proofs — all of which
// break SILENTLY if an encoding changes shape while still round-
// tripping through the current code. These tests pin every public
// encoding against byte-exact vectors checked in under testdata/golden:
// any drift fails loudly with instructions instead of shipping a
// registry/client incompatibility.
//
// The fixture is deterministic: math/rand drives both the trusted setup
// and the prover (fr.SetRandom consumes the byte stream via rejection
// sampling, which is platform-independent), so the artifacts are
// reproducible from the seed alone. Regenerate after an INTENTIONAL
// format change with:
//
//	ZKROWNN_UPDATE_GOLDEN=1 go test ./internal/groth16/ -run TestGoldenWireFormats

const goldenSeed = 0x5eed

// goldenArtifacts deterministically produces one proof + key pair over
// the cubic fixture system.
func goldenArtifacts(t *testing.T) (*ProvingKey, *VerifyingKey, *Proof, PublicInputs) {
	t.Helper()
	rng := rand.New(rand.NewSource(goldenSeed))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(3)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk, proof, PublicInputs(w[1:2])
}

// goldenCheck compares got against testdata/golden/<name>, rewriting
// the file in update mode.
func goldenCheck(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if os.Getenv("ZKROWNN_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden vector missing: %v (run with ZKROWNN_UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WIRE FORMAT DRIFT in %s: the %s encoding no longer matches the pinned vector.\n"+
			"This breaks persisted registries, key caches, and deployed clients.\n"+
			"If the change is intentional, bump the format version and regenerate with ZKROWNN_UPDATE_GOLDEN=1.\n"+
			"got  (%d bytes): %.96x...\nwant (%d bytes): %.96x...",
			path, name, len(got), got, len(want), want)
	}
}

// hexDump renders binary encodings as line-wrapped hex so the pinned
// vectors stay text-diffable.
func hexDump(raw []byte) []byte {
	const width = 64
	s := hex.EncodeToString(raw)
	var buf bytes.Buffer
	for len(s) > width {
		buf.WriteString(s[:width])
		buf.WriteByte('\n')
		s = s[width:]
	}
	buf.WriteString(s)
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestGoldenCircuitDigest pins the fixture's circuit digest — the stem
// of every key-cache file and the registry's model ID — to a committed
// literal and to the math/big oracle's reading of the same rows. A drift
// here orphans every persisted .pk/.vk/.csr and registry entry.
func TestGoldenCircuitDigest(t *testing.T) {
	got := cubicSystem().DigestHex()
	goldenCheck(t, "cubic.digest", []byte(got+"\n"))
	if want := r1cstest.Digest(r1cstest.Cubic(5)); got != want {
		t.Fatalf("CompiledSystem digest %s, oracle digest %s", got, want)
	}
}

func TestGoldenWireFormats(t *testing.T) {
	pk, vk, proof, public := goldenArtifacts(t)

	// Determinism sanity: a second run from the same seed must produce
	// identical artifacts, otherwise the vectors would be un-pinnable.
	{
		pk2, _, proof2, _ := goldenArtifacts(t)
		var a, b bytes.Buffer
		if _, err := pk.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := pk2.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("trusted setup is not deterministic under a seeded rng")
		}
		if !proof.Ar.Equal(&proof2.Ar) || !proof.Bs.Equal(&proof2.Bs) || !proof.Krs.Equal(&proof2.Krs) {
			t.Fatal("prover is not deterministic under a seeded rng")
		}
	}

	// JSON envelopes (the proof-service / client wire shapes).
	proofJSON, err := proof.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "proof.json", proofJSON)
	vkJSON, err := vk.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "vk.json", vkJSON)
	publicJSON, err := public.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "public.json", publicJSON)

	// Binary encodings (registry persistence, CLI artifacts) and the raw
	// key encodings (the engine's disk cache tier).
	var buf bytes.Buffer
	if _, err := proof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "proof.bin.hex", hexDump(buf.Bytes()))
	buf.Reset()
	if _, err := vk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "vk.bin.hex", hexDump(buf.Bytes()))
	buf.Reset()
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "pk.raw.hex", hexDump(buf.Bytes()))
}

// TestGoldenPublicInputsMixed pins the instance spelling at its seams
// (boundaryInputs: zero, ±1, both sides of 2⁶⁴, ±(r−1)/2, a digest) and
// decodes the pinned bytes back to the same elements.
func TestGoldenPublicInputsMixed(t *testing.T) {
	pi, _ := boundaryInputs()
	goldenCheck(t, "public_mixed.json", pi.AppendJSON(nil))
	pinned, err := os.ReadFile(filepath.Join("testdata", "golden", "public_mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back PublicInputs
	if err := back.UnmarshalJSON(pinned); err != nil || len(back) != len(pi) {
		t.Fatalf("pinned vector decodes to %d elements (%v), want %d", len(back), err, len(pi))
	}
	for i := range pi {
		if !back[i].Equal(&pi[i]) {
			t.Fatalf("pinned element %d decodes to %s, want %s", i, back[i].String(), pi[i].String())
		}
	}
}

// TestGoldenVectorsStillVerify decodes the PINNED vectors (not freshly
// generated ones) and runs the full verification path: the encodings on
// disk must stay semantically valid, not just byte-stable.
func TestGoldenVectorsStillVerify(t *testing.T) {
	if os.Getenv("ZKROWNN_UPDATE_GOLDEN") != "" {
		t.Skip("regenerating vectors")
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatalf("golden vector missing: %v", err)
		}
		return b
	}
	unhex := func(dump []byte) []byte {
		raw, err := hex.DecodeString(string(bytes.ReplaceAll(bytes.TrimSpace(dump), []byte("\n"), nil)))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	var proof Proof
	if err := proof.UnmarshalJSON(read("proof.json")); err != nil {
		t.Fatal(err)
	}
	var vk VerifyingKey
	if err := vk.UnmarshalJSON(read("vk.json")); err != nil {
		t.Fatal(err)
	}
	var public PublicInputs
	if err := public.UnmarshalJSON(read("public.json")); err != nil {
		t.Fatal(err)
	}
	if err := Verify(&vk, &proof, public); err != nil {
		t.Fatalf("pinned JSON artifacts no longer verify: %v", err)
	}

	// The binary forms must decode to the same artifacts.
	var binProof Proof
	if _, err := binProof.ReadFrom(bytes.NewReader(unhex(read("proof.bin.hex")))); err != nil {
		t.Fatal(err)
	}
	if !binProof.Ar.Equal(&proof.Ar) || !binProof.Bs.Equal(&proof.Bs) || !binProof.Krs.Equal(&proof.Krs) {
		t.Fatal("binary proof vector disagrees with the JSON envelope")
	}
	var binVK VerifyingKey
	if _, err := binVK.ReadFrom(bytes.NewReader(unhex(read("vk.bin.hex")))); err != nil {
		t.Fatal(err)
	}
	if err := Verify(&binVK, &binProof, public); err != nil {
		t.Fatalf("pinned binary artifacts no longer verify: %v", err)
	}
	spk := openStreamed(t, unhex(read("pk.raw.hex")), 2)
	rawPK, err := spk.Load()
	if err != nil {
		t.Fatalf("pinned raw proving key no longer decodes: %v", err)
	}
	// One meaning of key size: both forms report the bytes WriteTo writes.
	var wire bytes.Buffer
	if _, err := rawPK.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	if n := int64(wire.Len()); rawPK.SizeBytes() != n || spk.SizeBytes() != n {
		t.Fatalf("SizeBytes: resident %d, streamed %d, WriteTo wrote %d", rawPK.SizeBytes(), spk.SizeBytes(), n)
	}
	// The decoded proving key must still prove.
	rng := rand.New(rand.NewSource(goldenSeed + 1))
	sys := cubicSystem()
	reproof, err := Prove(sys, rawPK, cubicWitness(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(&vk, reproof, public); err != nil {
		t.Fatalf("proof from the pinned raw proving key rejected: %v", err)
	}
}
