package engine

import (
	"errors"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
)

func TestAggregateMany(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(21))})
	sys := cubicSystem(5)
	var proofs []*groth16.Proof
	var publics [][]fr.Element
	var vk *groth16.VerifyingKey
	for _, x := range []uint64{2, 3, 5, 7, 9} {
		res, err := e.Prove(withInputs(Request{System: sys}, cubicWitness(5, x)))
		if err != nil {
			t.Fatal(err)
		}
		vk = res.Keys.VK
		proofs = append(proofs, res.Proof)
		publics = append(publics, res.PublicInputs)
	}

	agg, svk, err := e.AggregateMany(vk, proofs, publics)
	if err != nil {
		t.Fatalf("aggregation failed: %v", err)
	}
	if agg == nil || svk == nil {
		t.Fatal("nil artifact or SRS key")
	}
	if err := groth16.VerifyAggregate(svk, vk, agg, publics); err != nil {
		t.Fatalf("engine artifact does not verify: %v", err)
	}
	if st := e.Stats(); st.Aggregates != 1 || st.AggregateTime <= 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}

	// An invalid member must fail the whole aggregation (the engine
	// self-checks the artifact before returning it).
	bad := make([][]fr.Element, len(publics))
	copy(bad, publics)
	bad[3] = []fr.Element{{}}
	bad[3][0].SetUint64(12345)
	if _, _, err := e.AggregateMany(vk, proofs, bad); err == nil {
		t.Fatal("aggregation of invalid set succeeded")
	}

	// SRS reuse: a second aggregation must not rebuild (same capacity).
	agg2, svk2, err := e.AggregateMany(vk, proofs[:2], publics[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !svk2.GA.Equal(&svk.GA) {
		t.Fatal("SRS was rebuilt for an in-capacity aggregation")
	}
	if err := groth16.VerifyAggregate(svk2, vk, agg2, publics[:2]); err != nil {
		t.Fatal(err)
	}

	// Empty and oversized sets are rejected up front.
	if _, _, err := e.AggregateMany(vk, nil, nil); err == nil {
		t.Fatal("empty set accepted")
	}
	big := make([]*groth16.Proof, maxAggregateProofs+1)
	bigPub := make([][]fr.Element, maxAggregateProofs+1)
	if _, _, err := e.AggregateMany(vk, big, bigPub); !errors.Is(err, groth16.ErrAggregateSize) {
		t.Fatalf("oversized set error = %v, want ErrAggregateSize", err)
	}

	// Closed engine returns ErrClosed.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AggregateMany(vk, proofs, publics); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine error = %v, want ErrClosed", err)
	}
}

func TestAggregateSRSKey(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(22))})
	srs, err := e.aggregationSRS(1)
	if err != nil {
		t.Fatal(err)
	}
	if srs.MaxN < minAggregateSRS || srs.VK.GA.IsInfinity() {
		t.Fatal("degenerate SRS key")
	}
}
