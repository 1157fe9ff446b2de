package groth16

import (
	"bytes"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// squareRows: x² = out (public out).
func squareRows() *r1cstest.Rows {
	T := r1cstest.T
	return &r1cstest.Rows{NbPublic: 2, NbWires: 3, Rows: []r1cstest.Row{
		{A: []r1cstest.Term{T(2, 1)}, B: []r1cstest.Term{T(2, 1)}, C: []r1cstest.Term{T(1, 1)}},
	}}
}

func squareSystem() *r1cs.CompiledSystem { return mustCSR(squareRows()) }

func squareWitness(x uint64) []fr.Element {
	w := make([]fr.Element, 3)
	w[0].SetOne()
	w[2].SetUint64(x)
	w[1].Mul(&w[2], &w[2])
	return w
}

// TestCrossCircuitProofRejected: a proof generated for one circuit must
// not verify under another circuit's verifying key, even with matching
// public-input arity.
func TestCrossCircuitProofRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	sysA := cubicSystem()
	sysB := squareSystem()

	pkA, _, err := Setup(sysA, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, vkB, err := Setup(sysB, rng)
	if err != nil {
		t.Fatal(err)
	}

	wA := cubicWitness(3)
	proofA, err := Prove(sysA, pkA, wA, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Same arity (1 public input), different circuit.
	if err := Verify(vkB, proofA, wA[1:2]); err == nil {
		t.Fatal("cross-circuit proof accepted")
	}
}

// TestCrossSetupProofRejected: two setups of the SAME circuit use
// different toxic waste; proofs are not transferable between them.
func TestCrossSetupProofRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	sys := squareSystem()
	pk1, _, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, vk2, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := squareWitness(6)
	proof, err := Prove(sys, pk1, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk2, proof, w[1:2]); err == nil {
		t.Fatal("proof accepted under a different setup's keys")
	}
}

// TestRandomGroupElementsRejected: a "proof" of random valid curve
// points must fail the pairing equation.
func TestRandomGroupElementsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	sys := squareSystem()
	_, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := squareWitness(5)

	var k1, k2, k3 fr.Element
	k1.SetUint64(uint64(rng.Int63()))
	k2.SetUint64(uint64(rng.Int63()))
	k3.SetUint64(uint64(rng.Int63()))
	g1 := curve.G1Generator()
	g2 := curve.G2Generator()
	var forged Proof
	var j1, j3 curve.G1Jac
	var j2 curve.G2Jac
	j1.ScalarMul(&g1, &k1)
	j2.ScalarMul(&g2, &k2)
	j3.ScalarMul(&g1, &k3)
	forged.Ar.FromJacobian(&j1)
	forged.Bs.FromJacobian(&j2)
	forged.Krs.FromJacobian(&j3)

	if err := Verify(vk, &forged, w[1:2]); err == nil {
		t.Fatal("random group elements accepted as a proof")
	}
}

// TestZeroKnowledgePublicOnly: the verifier only ever touches the
// public inputs — witness length beyond the instance must not matter to
// verification (sanity on the instance/witness split).
func TestZeroKnowledgePublicOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(703))
	sys := squareSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Two witnesses with the same public square (x and -x).
	wPos := squareWitness(9)
	wNeg := make([]fr.Element, 3)
	wNeg[0].SetOne()
	wNeg[2].SetUint64(9)
	wNeg[2].Neg(&wNeg[2])
	wNeg[1].Mul(&wNeg[2], &wNeg[2])

	pPos, err := Prove(sys, pk, wPos, rng)
	if err != nil {
		t.Fatal(err)
	}
	pNeg, err := Prove(sys, pk, wNeg, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := wPos[1:2]
	if err := Verify(vk, pPos, public); err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, pNeg, public); err != nil {
		t.Fatal("witness -x proves the same public statement; must verify")
	}
}

// TestSetupValidation covers malformed-system rejection.
func TestSetupValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(704))
	if _, _, err := Setup(mustCSR(&r1cstest.Rows{NbPublic: 1, NbWires: 1}), rng); err == nil {
		t.Fatal("empty system accepted")
	}
	// The literal an "empty system" starts from has no row offsets at all;
	// Setup must turn it away through Validate, not index into it.
	if _, _, err := Setup(&r1cs.CompiledSystem{NbPublic: 1, NbWires: 1}, rng); err == nil {
		t.Fatal("system without row offsets accepted")
	}
	badRows := squareRows()
	badRows.Rows[0].A[0].Wire = 99
	if _, err := r1cstest.CSR(badRows); err == nil {
		t.Fatal("invalid wire index accepted by Validate")
	}
	bad := squareSystem()
	bad.A.Wires[0] = 99
	if _, _, err := Setup(bad, rng); err == nil {
		t.Fatal("invalid wire index accepted by Setup")
	}
}

// twoPublicSystem: private x, publics [x², x² + x] — an asymmetric
// instance where swapping the two public values changes the statement.
func twoPublicSystem() *r1cs.CompiledSystem {
	T := r1cstest.T
	return mustCSR(&r1cstest.Rows{NbPublic: 3, NbWires: 4, Rows: []r1cstest.Row{
		{A: []r1cstest.Term{T(3, 1)}, B: []r1cstest.Term{T(3, 1)}, C: []r1cstest.Term{T(1, 1)}},          // x·x = pub1
		{A: []r1cstest.Term{T(1, 1), T(3, 1)}, B: []r1cstest.Term{T(0, 1)}, C: []r1cstest.Term{T(2, 1)}}, // (pub1 + x)·1 = pub2
	}})
}

func twoPublicWitness(x uint64) []fr.Element {
	w := make([]fr.Element, 4)
	w[0].SetOne()
	w[3].SetUint64(x)
	w[1].Mul(&w[3], &w[3])
	w[2].Add(&w[1], &w[3])
	return w
}

// TestBitFlippedProofBytesRejected: every single-bit corruption of the
// 128-byte wire proof must either fail deserialization (point off the
// curve / outside its subgroup / bad framing) or fail verification —
// never verify.
func TestBitFlippedProofBytesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	sys := squareSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := squareWitness(7)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := w[1:2]
	if err := Verify(vk, proof, public); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := proof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for bit := 0; bit < len(raw)*8; bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[bit/8] ^= 1 << (bit % 8)
		var p Proof
		if _, err := p.ReadFrom(bytes.NewReader(flipped)); err != nil {
			continue // rejected at the decoding layer, good
		}
		if err := Verify(vk, &p, public); err == nil {
			t.Fatalf("proof with bit %d flipped passed verification", bit)
		}
	}
}

// TestTruncatedProofStreamRejected: every strict prefix of the wire
// proof must fail ReadFrom, never decode to a partial proof.
func TestTruncatedProofStreamRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(711))
	sys := squareSystem()
	pk, _, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(sys, pk, squareWitness(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := proof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for n := 0; n < len(raw); n++ {
		var p Proof
		if _, err := p.ReadFrom(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncated proof stream (%d of %d bytes) decoded", n, len(raw))
		}
	}
}

// TestSwappedPublicInputsRejected: reordering public inputs states a
// different (false) instance and must fail the pairing check.
func TestSwappedPublicInputsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(712))
	sys := twoPublicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := twoPublicWitness(5) // publics [25, 30]
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := w[1:3]
	if err := Verify(vk, proof, public); err != nil {
		t.Fatal(err)
	}
	swapped := []fr.Element{public[1], public[0]}
	if err := Verify(vk, proof, swapped); err == nil {
		t.Fatal("swapped public inputs accepted")
	}
}

// TestPublicInputArityRejected: truncated or padded instances must be
// rejected by length, before any curve arithmetic.
func TestPublicInputArityRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(713))
	sys := twoPublicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := twoPublicWitness(4)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	public := w[1:3]
	if err := Verify(vk, proof, public[:1]); err == nil {
		t.Fatal("truncated public inputs accepted")
	}
	if err := Verify(vk, proof, append(append([]fr.Element(nil), public...), fr.Element{})); err == nil {
		t.Fatal("padded public inputs accepted")
	}
	if err := Verify(vk, proof, nil); err == nil {
		t.Fatal("empty public inputs accepted")
	}
}

// TestQuotientDegreeGuard: an inconsistent witness that satisfies the
// constraint rows but breaks the global polynomial identity cannot
// occur through the public API; this checks the internal guard fires on
// unsatisfied witnesses before any expensive work.
func TestQuotientDegreeGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	sys := squareSystem()
	pk, _, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := squareWitness(4)
	w[1].SetUint64(999) // break the square
	if _, err := Prove(sys, pk, w, rng); err == nil {
		t.Fatal("prover produced a proof for a false statement")
	}
}
