package groth16

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zkrownn/internal/bn254/fr"
)

func TestBatchVerifyAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	var proofs []*Proof
	var publics [][]fr.Element
	for _, x := range []uint64{2, 3, 5, 11} {
		w := cubicWitness(x)
		proof, err := Prove(sys, pk, w, rng)
		if err != nil {
			t.Fatal(err)
		}
		proofs = append(proofs, proof)
		publics = append(publics, w[1:sys.NbPublic])
	}
	if err := BatchVerify(vk, proofs, publics, rng); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

// TestBatchVerifyRejectsOneBadProof puts one tampered member first, in
// the middle and last of batches of 2 and 3. The first position is the
// one whose challenge is fixed at 1; the tampers are the two that a
// verify load sends: Ar negated, and the first public input plus one.
func TestBatchVerifyRejectsOneBadProof(t *testing.T) {
	rng := rand.New(rand.NewSource(711))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	var proofs []*Proof
	var publics [][]fr.Element
	for _, x := range []uint64{2, 3, 5} {
		w := cubicWitness(x)
		proof, err := Prove(sys, pk, w, rng)
		if err != nil {
			t.Fatal(err)
		}
		proofs = append(proofs, proof)
		publics = append(publics, w[1:sys.NbPublic])
	}
	tampers := map[string]func(p *Proof, pub []fr.Element) (*Proof, []fr.Element){
		"negated Ar": func(p *Proof, pub []fr.Element) (*Proof, []fr.Element) {
			bad := *p
			bad.Ar.Neg(&p.Ar)
			return &bad, pub
		},
		"first input plus one": func(p *Proof, pub []fr.Element) (*Proof, []fr.Element) {
			bad := slices.Clone(pub)
			var one fr.Element
			one.SetOne()
			bad[0].Add(&bad[0], &one)
			return p, bad
		},
	}
	for name, tamper := range tampers {
		for k := 2; k <= 3; k++ {
			for _, at := range []int{0, k / 2, k - 1} {
				ps, pubs := slices.Clone(proofs[:k]), slices.Clone(publics[:k])
				ps[at], pubs[at] = tamper(ps[at], pubs[at])
				if err := BatchVerify(vk, ps, pubs, rng); err == nil {
					t.Errorf("%s at %d of %d: batch accepted", name, at, k)
				}
			}
		}
	}
	if err := BatchVerify(vk, proofs, publics, rng); err != nil {
		t.Fatalf("tampering touched the honest batch: %v", err)
	}
}

// failingReader fails every read.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("no randomness here") }

// TestBatchVerifyOfOneReadsNoRandomness pins r₀ = 1: a batch of one
// proof is the plain check, so an rng that cannot be read does not stop
// it, and it keeps the plain check's error texts.
func TestBatchVerifyOfOneReadsNoRandomness(t *testing.T) {
	rng := rand.New(rand.NewSource(716))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := cubicWitness(6)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	pub := w[1:sys.NbPublic]
	if err := BatchVerify(vk, []*Proof{proof}, [][]fr.Element{pub}, failingReader{}); err != nil {
		t.Fatalf("valid batch of one: %v", err)
	}
	bad := *proof
	bad.Ar.Neg(&proof.Ar)
	err = BatchVerify(vk, []*Proof{&bad}, [][]fr.Element{pub}, failingReader{})
	if err == nil || err.Error() != "groth16: invalid proof" {
		t.Fatalf("tampered batch of one: err = %v, want groth16: invalid proof", err)
	}
	err = BatchVerify(vk, []*Proof{proof}, [][]fr.Element{pub[1:]}, failingReader{})
	if want := fmt.Sprintf("groth16: got %d public inputs, verifying key expects %d", len(pub)-1, len(pub)); err == nil || err.Error() != want {
		t.Fatalf("short instance: err = %v, want %s", err, want)
	}
}

func TestBatchVerifyRejectsSwappedProofs(t *testing.T) {
	rng := rand.New(rand.NewSource(712))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	w2 := cubicWitness(2)
	w3 := cubicWitness(3)
	p2, err := Prove(sys, pk, w2, rng)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Prove(sys, pk, w3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Swap public inputs between the two proofs.
	if err := BatchVerify(vk, []*Proof{p2, p3},
		[][]fr.Element{w3[1:sys.NbPublic], w2[1:sys.NbPublic]}, rng); err == nil {
		t.Fatal("batch with swapped instances accepted")
	}
}

func TestBatchVerifyEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(713))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := BatchVerify(vk, nil, nil, rng); err == nil {
		t.Fatal("empty batch accepted")
	}
	w := cubicWitness(4)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Single-proof batch must agree with plain Verify.
	if err := BatchVerify(vk, []*Proof{proof}, [][]fr.Element{w[1:sys.NbPublic]}, rng); err != nil {
		t.Fatal(err)
	}
	// Length mismatch.
	if err := BatchVerify(vk, []*Proof{proof}, nil, rng); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Arity mismatch.
	if err := BatchVerify(vk, []*Proof{proof}, [][]fr.Element{nil}, rng); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func BenchmarkVerifySingle(b *testing.B) {
	rng := rand.New(rand.NewSource(714))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		b.Fatal(err)
	}
	w := cubicWitness(3)
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		b.Fatal(err)
	}
	pub := w[1:sys.NbPublic]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(vk, proof, pub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchVerify8(b *testing.B) {
	rng := rand.New(rand.NewSource(715))
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		b.Fatal(err)
	}
	var proofs []*Proof
	var publics [][]fr.Element
	for x := uint64(2); x < 10; x++ {
		w := cubicWitness(x)
		proof, err := Prove(sys, pk, w, rng)
		if err != nil {
			b.Fatal(err)
		}
		proofs = append(proofs, proof)
		publics = append(publics, w[1:sys.NbPublic])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BatchVerify(vk, proofs, publics, rng); err != nil {
			b.Fatal(err)
		}
	}
}
