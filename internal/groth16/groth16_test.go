package groth16

import (
	"bytes"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// mustCSR compiles hand-written rows, every wire an input; a fixture
// that does not validate is a bug in the test.
func mustCSR(rows *r1cstest.Rows) *r1cs.CompiledSystem {
	cs, err := r1cstest.CSR(rows)
	if err != nil {
		panic(err)
	}
	return cs
}

// cubicSystem is the classic toy circuit: prove knowledge of x with
// x³ + x + 5 = out, out public.
//
// Wires: 0 = one, 1 = out (public), 2 = x, 3 = x², 4 = x³.
func cubicSystem() *r1cs.CompiledSystem { return mustCSR(r1cstest.Cubic(5)) }

// cubicWitness returns the wire assignment for a given x.
func cubicWitness(x uint64) []fr.Element { return r1cstest.CubicWitness(5, x) }

func TestSatisfiedWitness(t *testing.T) {
	sys := cubicSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(3)
	if ok, bad := sys.IsSatisfied(w); !ok {
		t.Fatalf("honest witness rejected at constraint %d", bad)
	}
	// Tamper.
	w[3].SetUint64(99)
	if ok, _ := sys.IsSatisfied(w); ok {
		t.Fatal("tampered witness accepted")
	}
}

func TestProveVerifyRoundTrip(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(70))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(3)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := w[1:sys.NbPublic]
	if err := Verify(vk, proof, public); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
}

// TestAlphaBetaCache checks the cached-e(α,β) verification fast path:
// Setup populates the cache, the 3-pairing and 4-pairing checks agree
// on both honest and corrupted proofs, and PrecomputeAlphaBeta restores
// the cache on a key that lost it.
func TestAlphaBetaCache(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(71))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	if vk.AlphaBeta.IsZero() {
		t.Fatal("Setup did not populate the e(α,β) cache")
	}
	w := cubicWitness(4)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := w[1:sys.NbPublic]
	if err := Verify(vk, proof, public); err != nil {
		t.Fatalf("cached-path verify rejected honest proof: %v", err)
	}

	// Strip the cache: the 4-pairing fallback must agree.
	var stripped VerifyingKey
	stripped = *vk
	stripped.AlphaBeta.SetZero()
	if err := Verify(&stripped, proof, public); err != nil {
		t.Fatalf("fallback verify rejected honest proof: %v", err)
	}
	got := PrecomputeAlphaBeta(&stripped)
	if got.IsZero() || !stripped.AlphaBeta.Equal(&vk.AlphaBeta) {
		t.Fatal("PrecomputeAlphaBeta did not restore the cache")
	}

	// Both paths must still reject corruption.
	bad := *proof
	bad.Ar.Neg(&bad.Ar)
	if err := Verify(vk, &bad, public); err == nil {
		t.Fatal("cached path accepted corrupted proof")
	}
	if err := Verify(&stripped, &bad, public); err == nil {
		t.Fatal("fallback path accepted corrupted proof")
	}

	// A deserialized key re-derives the cache from its points.
	var buf bytes.Buffer
	if _, err := vk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var vk2 VerifyingKey
	if _, err := vk2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if vk2.AlphaBeta.IsZero() || !vk2.AlphaBeta.Equal(&vk.AlphaBeta) {
		t.Fatal("ReadFrom did not repopulate the e(α,β) cache")
	}
	if err := Verify(&vk2, proof, public); err != nil {
		t.Fatalf("deserialized key rejected honest proof: %v", err)
	}
}

func TestVerifyRejectsWrongPublicInput(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(71))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(3)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	var wrong fr.Element
	wrong.SetUint64(36) // true out is 35
	if err := Verify(vk, proof, []fr.Element{wrong}); err == nil {
		t.Fatal("proof verified against wrong public input")
	}
	// Wrong arity.
	if err := Verify(vk, proof, nil); err == nil {
		t.Fatal("proof verified with missing public inputs")
	}
}

func TestVerifyRejectsCorruptedProof(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(72))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(4)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := w[1:sys.NbPublic]

	// Swap A and C (both G1): still valid points, wrong equation.
	bad := *proof
	bad.Ar, bad.Krs = proof.Krs, proof.Ar
	if err := Verify(vk, &bad, public); err == nil {
		t.Fatal("corrupted proof accepted")
	}
}

func TestProveRejectsBadWitness(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(73))
	pk, _, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(3)
	w[4].SetUint64(1234)
	if _, err := Prove(sys, pk, w, rng); err == nil {
		t.Fatal("prover accepted an unsatisfiable witness")
	}
	if _, err := Prove(sys, pk, w[:3], rng); err == nil {
		t.Fatal("prover accepted a short witness")
	}
}

func TestProofsAreRandomized(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(74))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(3)
	p1, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Ar.Equal(&p2.Ar) {
		t.Fatal("two proofs share the A element; zero-knowledge randomization broken")
	}
	public := w[1:sys.NbPublic]
	if err := Verify(vk, p1, public); err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, p2, public); err != nil {
		t.Fatal(err)
	}
}

func TestProofSerialization(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(75))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(5)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := proof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wantLen := 8 + proof.PayloadSize()
	if buf.Len() != wantLen {
		t.Fatalf("serialized proof is %d bytes, want %d", buf.Len(), wantLen)
	}
	if proof.PayloadSize() != 128 {
		t.Fatalf("proof payload is %d bytes, want 128 (paper: ~127.4B)", proof.PayloadSize())
	}

	var dec Proof
	if _, err := dec.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !dec.Ar.Equal(&proof.Ar) || !dec.Bs.Equal(&proof.Bs) || !dec.Krs.Equal(&proof.Krs) {
		t.Fatal("proof round trip mismatch")
	}
	if err := Verify(vk, &dec, w[1:sys.NbPublic]); err != nil {
		t.Fatal("deserialized proof rejected")
	}
}

func TestKeySerialization(t *testing.T) {
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(76))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}

	var vkBuf bytes.Buffer
	if _, err := vk.WriteTo(&vkBuf); err != nil {
		t.Fatal(err)
	}
	var vk2 VerifyingKey
	if _, err := vk2.ReadFrom(&vkBuf); err != nil {
		t.Fatal(err)
	}

	// The deserialized key must be fully functional.
	w := cubicWitness(7)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(&vk2, proof, w[1:sys.NbPublic]); err != nil {
		t.Fatal("round-tripped verifying key fails to verify")
	}

	if got, want := pk.SizeBytes(), compressedPKSize(pk); got != want {
		t.Fatalf("SizeBytes %d != compressed points and framing %d", got, want)
	}
	if vk.SizeBytes() <= 0 {
		t.Fatal("vk.SizeBytes not positive")
	}
}

func TestProofGarbageRejected(t *testing.T) {
	var p Proof
	if _, err := p.ReadFrom(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Fatal("garbage accepted as proof")
	}
	// Valid header, invalid point.
	buf := append([]byte{'Z', 'K', 'P', 'F', 1, 0, 0, 0}, make([]byte, 128)...)
	if _, err := p.ReadFrom(bytes.NewReader(buf)); err == nil {
		t.Fatal("invalid point bytes accepted")
	}
}
