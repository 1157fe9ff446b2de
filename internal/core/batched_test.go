package core

import (
	"fmt"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

// batchP is the smoke-scale fixed-point format of the batched tests.
var batchP = fixpoint.Params{FracBits: 8, MagBits: 36}

// tinyQuantNet builds a small dense+relu quantized network with
// seed-dependent weights (fixed architecture).
func tinyQuantNet(seed int64, in, hidden int) *nn.QuantizedNetwork {
	rng := rand.New(rand.NewSource(seed))
	return &nn.QuantizedNetwork{
		Params: batchP,
		Layers: []nn.QuantizedLayer{
			randQuantDense(rng, batchP, in, hidden),
			{Kind: "relu", Out: hidden},
		},
	}
}

// TestBatchedExtractionDegeneratesToSingle: k = 1 must be EXACTLY the
// single-slot circuit — same digest, names, and layout — so registry
// IDs and key caches are shared between the two entry points.
func TestBatchedExtractionDegeneratesToSingle(t *testing.T) {
	q := tinyQuantNet(1, 5, 3)
	ck := randCircuitKey(rand.New(rand.NewSource(9)), batchP, 5, 3, 4, 2)

	single, err := ExtractionCircuit(q, ck, 2)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := BatchedExtractionCircuit(q, ck, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.System.DigestHex() != batched.System.DigestHex() {
		t.Fatal("k=1 batched circuit digest differs from ExtractionCircuit")
	}
	if single.Slots() != 1 || batched.Slots() != 1 {
		t.Fatalf("slots: single %d batched %d, want 1", single.Slots(), batched.Slots())
	}
	last := single.System.PublicNames[single.System.NbPublic-1]
	if last != "claim" {
		t.Fatalf("k=1 claim wire named %q", last)
	}
}

// TestBatchedExtractionSolveOracle: the batched circuit's recorded
// solver must reproduce the eager witness, and each slot's claim must
// equal the claim the single-slot circuit computes for the same model.
func TestBatchedExtractionSolveOracle(t *testing.T) {
	const k = 3
	q := tinyQuantNet(2, 5, 3)
	ck := randCircuitKey(rand.New(rand.NewSource(10)), batchP, 5, 3, 4, 2)

	art, err := BatchedExtractionCircuit(q, ck, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	if art.Slots() != k {
		t.Fatalf("slots %d, want %d", art.Slots(), k)
	}
	if ok, bad := art.System.IsSatisfied(art.Witness); !ok {
		t.Fatalf("eager witness violates constraint %d", bad)
	}
	solved, err := art.System.SolveAssignment(art.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solved {
		if !solved[i].Equal(&art.Witness[i]) {
			t.Fatalf("wire %d: solver %v != eager %v", i, solved[i], art.Witness[i])
		}
	}

	// Trailing k publics are the claims, named claim0..claim<k-1>, and
	// all slots hold the same model → identical verdicts.
	names := art.System.PublicNames
	for s := 0; s < k; s++ {
		want := fmt.Sprintf("claim%d", s)
		if got := names[art.System.NbPublic-k+s]; got != want {
			t.Fatalf("claim wire %d named %q, want %q", s, got, want)
		}
	}
	pub := art.System.PublicValues(solved)
	claims, err := ClaimBits(pub, k)
	if err != nil {
		t.Fatal(err)
	}
	singleArt, err := ExtractionCircuit(q, ck, 2)
	if err != nil {
		t.Fatal(err)
	}
	singlePub := singleArt.PublicInputs()
	singleClaims, err := ClaimBits(singlePub, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range claims {
		if c != singleClaims[0] {
			t.Fatalf("slot %d claim %v, single-slot circuit says %v", s, c, singleClaims[0])
		}
	}

	// The shared key material must be declared once: K slots cost far
	// fewer secret inputs than K independent circuits.
	if got, limit := len(art.System.SecretInputs), len(singleArt.System.SecretInputs)+k; got > limit {
		t.Fatalf("batched circuit has %d secret inputs, want at most the single circuit's %d (+slack)",
			got, limit)
	}
}

// TestBindSuspectSlots: per-slot rebinding must reproduce, slot by
// slot, the claims the single-slot circuit computes for each suspect —
// without recompiling anything.
func TestBindSuspectSlots(t *testing.T) {
	const k = 3
	registered := tinyQuantNet(3, 5, 3)
	ck := randCircuitKey(rand.New(rand.NewSource(11)), batchP, 5, 3, 4, 2)
	art, err := BatchedExtractionCircuit(registered, ck, 2, k)
	if err != nil {
		t.Fatal(err)
	}

	suspectB := tinyQuantNet(4, 5, 3)
	suspectC := tinyQuantNet(5, 5, 3)
	// Slot 0 keeps the registered model (nil), slots 1 and 2 get
	// distinct suspects.
	asg, err := BindSuspectSlots(art, []*nn.QuantizedNetwork{nil, suspectB, suspectC})
	if err != nil {
		t.Fatal(err)
	}
	solved, err := art.System.SolveAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := art.System.IsSatisfied(solved); !ok {
		t.Fatalf("bound witness violates constraint %d", bad)
	}
	pub := art.System.PublicValues(solved)
	claims, err := ClaimBits(pub, k)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: each slot's claim equals the single circuit's claim for
	// that slot's model.
	singleClaim := func(q *nn.QuantizedNetwork) bool {
		t.Helper()
		sa, err := ExtractionCircuit(q, ck, 2)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := ClaimBits(sa.PublicInputs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return cs[0]
	}
	wants := []bool{singleClaim(registered), singleClaim(suspectB), singleClaim(suspectC)}
	for s := range wants {
		if claims[s] != wants[s] {
			t.Fatalf("slot %d claim %v, single-slot oracle says %v", s, claims[s], wants[s])
		}
	}

	// The slot weight sections must carry each suspect's weights: slot 1
	// publics must differ from slot 0's wherever the models differ.
	sameAsRegistered := true
	for i, name := range art.System.PubInputNames {
		if slot, _ := splitSlotName(name); slot == 1 {
			orig := art.Assignment.Public[i]
			if !asg.Public[i].Equal(&orig) {
				sameAsRegistered = false
				break
			}
		}
	}
	if sameAsRegistered {
		t.Fatal("slot 1 weights unchanged after binding a different suspect")
	}

	// Slot-count mismatch and all-nil bindings are rejected.
	if _, err := BindSuspectSlots(art, []*nn.QuantizedNetwork{suspectB}); err == nil {
		t.Fatal("binding 1 suspect to a 3-slot circuit succeeded")
	}
	if _, err := BindSuspectSlots(art, make([]*nn.QuantizedNetwork, k)); err == nil {
		t.Fatal("binding all-nil suspects succeeded")
	}
	// A shape mismatch in ANY slot rejects the whole bundle.
	wide := tinyQuantNet(6, 5, 4)
	if _, err := BindSuspectSlots(art, []*nn.QuantizedNetwork{nil, wide, nil}); err == nil {
		t.Fatal("mismatched suspect in slot 1 accepted")
	}
}

// TestBatchedExtractionEndToEndProof: one Groth16 proof carries K
// claims through setup → prove → verify.
func TestBatchedExtractionEndToEndProof(t *testing.T) {
	const k = 2
	q := tinyQuantNet(7, 4, 3)
	ck := randCircuitKey(rand.New(rand.NewSource(12)), batchP, 4, 3, 4, 2)
	// maxErrors = signature width: every claim is 1 regardless of
	// weights, exercising the full verification path.
	art, err := BatchedExtractionCircuit(q, ck, 4, k)
	if err != nil {
		t.Fatal(err)
	}
	suspect := tinyQuantNet(8, 4, 3)
	asg, err := BindSuspectSlots(art, []*nn.QuantizedNetwork{nil, suspect})
	if err != nil {
		t.Fatal(err)
	}
	solved, err := art.System.SolveAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	pk, vk, err := groth16.Setup(art.System, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(art.System, pk, solved, rng)
	if err != nil {
		t.Fatal(err)
	}
	pub := art.System.PublicValues(solved)
	if err := groth16.Verify(vk, proof, pub); err != nil {
		t.Fatal(err)
	}
	claims, err := ClaimBits(pub, k)
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range claims {
		if !c {
			t.Fatalf("slot %d claim 0 under full BER tolerance", s)
		}
	}
	if proof.PayloadSize() != 128 {
		t.Fatalf("batched proof size %d, want the constant 128", proof.PayloadSize())
	}
}

// TestBatchedExtractionRejectsBadSlotCount covers the constructor's
// parameter validation.
func TestBatchedExtractionRejectsBadSlotCount(t *testing.T) {
	q := tinyQuantNet(30, 4, 2)
	ck := randCircuitKey(rand.New(rand.NewSource(31)), batchP, 4, 2, 4, 2)
	if _, err := BatchedExtractionCircuit(q, ck, 2, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := BatchedExtractionCircuit(q, ck, 2, -3); err == nil {
		t.Fatal("negative k accepted")
	}
}

// TestClaimBits covers the instance-decoding helper.
func TestClaimBits(t *testing.T) {
	one := func() fr.Element { var e fr.Element; e.SetOne(); return e }
	pub := []fr.Element{one(), {}, one()}
	claims, err := ClaimBits(pub, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 2 || claims[0] || !claims[1] {
		t.Fatalf("claims %v, want [false true]", claims)
	}
	if _, err := ClaimBits(pub, 0); err == nil {
		t.Fatal("slots=0 accepted")
	}
	if _, err := ClaimBits(pub, 4); err == nil {
		t.Fatal("more slots than publics accepted")
	}
}

// TestClaimBoundaryAtMaxErrors pins the zkBER tolerance edge: a
// watermark extracting with exactly maxErrors bit errors yields
// claim 1, exactly maxErrors+1 yields claim 0 — and the claim-0 proof
// still VERIFIES as a Groth16 proof (of a failed claim): an arbiter
// rejects the ownership claim from the instance, not from a proof
// failure. Claim-bit forgery is therefore a public-input substitution,
// covered by TestExtractionClaimForgeryRejected.
func TestClaimBoundaryAtMaxErrors(t *testing.T) {
	_, q, key := watermarkedMLP(t, 310)
	_, nbErr, err := watermark.ExtractQuantized(q, key)
	if err != nil {
		t.Fatal(err)
	}
	ck := QuantizeKey(key, testP)
	if nbErr == 0 {
		// Flip exactly one signature bit so the extraction error count
		// is exactly 1 and the boundary is pinned.
		ck.Signature[0] ^= 1
		nbErr = 1
	}

	atTolerance, err := ExtractionCircuit(q, ck, nbErr) // errors ≤ maxErrors → claim 1
	if err != nil {
		t.Fatal(err)
	}
	claims, err := ClaimBits(atTolerance.PublicInputs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !claims[0] {
		t.Fatal("BER exactly at maxErrors must yield claim 1")
	}

	overTolerance, err := ExtractionCircuit(q, ck, nbErr-1) // errors = maxErrors+1 → claim 0
	if err != nil {
		t.Fatal(err)
	}
	claims, err = ClaimBits(overTolerance.PublicInputs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if claims[0] {
		t.Fatal("BER at maxErrors+1 must yield claim 0")
	}

	// The failed claim still proves and verifies; the verdict reads
	// claim 0 with no error.
	rng := rand.New(rand.NewSource(311))
	pl, err := RunPipeline(overTolerance, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := groth16.Verify(pl.VK, pl.Proof, overTolerance.PublicInputs()); err != nil {
		t.Fatalf("claim-0 proof must still verify, got %v", err)
	}
	claims, err = Spec{Slots: 1}.Verdict(overTolerance.PublicInputs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if claims[0] {
		t.Fatal("claim-0 instance reported as a valid ownership claim")
	}
}

// TestExtractionClaimForgeryRejected: flipping the public claim bit of
// a claim-0 instance must break verification — the claim wire is
// constrained to the in-circuit BER verdict.
func TestExtractionClaimForgeryRejected(t *testing.T) {
	q := tinyQuantNet(40, 4, 3)
	ck := randCircuitKey(rand.New(rand.NewSource(41)), batchP, 4, 3, 4, 2)
	// maxErrors 0 against random weights: overwhelmingly claim 0; if the
	// draw happens to extract cleanly, flip a signature bit to force it.
	art, err := ExtractionCircuit(q, ck, 0)
	if err != nil {
		t.Fatal(err)
	}
	if claims, _ := ClaimBits(art.PublicInputs(), 1); claims[0] {
		ck.Signature[0] ^= 1
		if art, err = ExtractionCircuit(q, ck, 0); err != nil {
			t.Fatal(err)
		}
		if claims, _ := ClaimBits(art.PublicInputs(), 1); claims[0] {
			t.Fatal("could not construct a claim-0 instance")
		}
	}
	rng := rand.New(rand.NewSource(42))
	pl, err := RunPipeline(art, rng)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]fr.Element(nil), art.PublicInputs()...)
	forged[len(forged)-1].SetOne()
	if err := groth16.Verify(pl.VK, pl.Proof, forged); err == nil {
		t.Fatal("claim bit forged to 1 and the proof still verified")
	}
}
