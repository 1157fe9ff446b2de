package groth16

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// decodedCopy returns vk as a verifier receives it: through WriteTo and
// ReadFrom, every cache re-derived from the points.
func decodedCopy(t testing.TB, vk *VerifyingKey) *VerifyingKey {
	t.Helper()
	var buf bytes.Buffer
	if _, err := vk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := new(VerifyingKey)
	if _, err := out.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	return out
}

// lineTableKeys returns key B in every state a verifier can hold it in:
// freshly decoded; assembled by hand with no caches at all, or with
// e(α, β) but no tables; and with STALE tables — a key that went through
// PrecomputeAlphaBeta as key A and had its points overwritten with B's
// afterwards (both tables, or only δ's).
func lineTableKeys(t testing.TB, a, b *VerifyingKey) map[string]*VerifyingKey {
	t.Helper()
	bare := &VerifyingKey{AlphaG1: b.AlphaG1, BetaG2: b.BetaG2, GammaG2: b.GammaG2, DeltaG2: b.DeltaG2, IC: b.IC}
	noTables := *bare
	noTables.AlphaBeta = b.AlphaBeta

	stale := decodedCopy(t, a)
	PrecomputeAlphaBeta(stale)
	if stale.gammaLines == nil || stale.deltaLines == nil {
		t.Fatal("PrecomputeAlphaBeta built no line tables")
	}
	stale.AlphaG1, stale.BetaG2, stale.GammaG2, stale.DeltaG2 = b.AlphaG1, b.BetaG2, b.GammaG2, b.DeltaG2
	stale.IC, stale.AlphaBeta = b.IC, b.AlphaBeta

	// One table stale, the other right.
	halfStale := *decodedCopy(t, b)
	halfStale.deltaLines = stale.deltaLines

	return map[string]*VerifyingKey{
		"decoded":              decodedCopy(t, b),
		"hand-assembled":       bare,
		"e(α,β) but no tables": &noTables,
		"stale tables":         stale,
		"one stale table":      &halfStale,
	}
}

// TestLineTableGuard: whatever state the key's caches are in, Verify,
// BatchVerify and VerifyAggregate answer exactly as a freshly decoded
// key does — a valid proof accepted; the A-negated forgery, a perturbed
// instance and a proof made under another key rejected.
func TestLineTableGuard(t *testing.T) {
	_, vkA, proofsA, publicsA := aggregateFixture(t, 0x7100, 2)
	srsB, vkB, proofsB, publicsB := aggregateFixture(t, 0x7200, 2)
	if vkA.GammaG2.Equal(&vkB.GammaG2) || vkA.DeltaG2.Equal(&vkB.DeltaG2) {
		t.Fatal("fixtures share γ or δ; stale tables would go unnoticed")
	}
	if vkB.gammaLines == nil || vkB.deltaLines == nil {
		t.Fatal("Setup built no line tables")
	}
	if dec := decodedCopy(t, vkB); dec.gammaLines == nil || dec.deltaLines == nil {
		t.Fatal("ReadFrom built no line tables")
	}
	aggB, err := AggregateProofs(srsB, vkB, proofsB, publicsB)
	if err != nil {
		t.Fatal(err)
	}

	forged := *proofsB[0]
	forged.Ar.Neg(&forged.Ar)
	perturbed := append([]fr.Element(nil), publicsB[0]...)
	perturbed[0].SetUint64(999)
	badSet := [][]fr.Element{publicsB[0], perturbed}

	probes := []struct {
		name   string
		proof  *Proof
		public []fr.Element
		valid  bool
	}{
		{"valid proof", proofsB[0], publicsB[0], true},
		{"second valid proof", proofsB[1], publicsB[1], true},
		{"A-negated forgery", &forged, publicsB[0], false},
		{"perturbed instance", proofsB[0], perturbed, false},
		{"proof under the other key", proofsA[0], publicsA[0], false},
	}
	for state, vk := range lineTableKeys(t, vkA, vkB) {
		for _, p := range probes {
			if err := Verify(vk, p.proof, p.public); (err == nil) != p.valid {
				t.Errorf("%s key, %s: Verify error %v", state, p.name, err)
			}
		}
		rng := rand.New(rand.NewSource(0x7300))
		if err := BatchVerify(vk, proofsB, publicsB, rng); err != nil {
			t.Errorf("%s key: BatchVerify rejected a valid batch: %v", state, err)
		}
		if err := BatchVerify(vk, []*Proof{proofsB[0], &forged}, publicsB[:2], rng); err == nil {
			t.Errorf("%s key: BatchVerify accepted a batch holding the forgery", state)
		}
		if err := BatchVerify(vk, proofsB, badSet, rng); err == nil {
			t.Errorf("%s key: BatchVerify accepted a perturbed instance", state)
		}
		if err := BatchVerify(vk, proofsA, publicsA, rng); err == nil {
			t.Errorf("%s key: BatchVerify accepted proofs made under another key", state)
		}
		if err := VerifyAggregate(&srsB.VK, vk, aggB, publicsB); err != nil {
			t.Errorf("%s key: VerifyAggregate rejected a valid aggregate: %v", state, err)
		}
		if err := VerifyAggregate(&srsB.VK, vk, aggB, badSet); err == nil {
			t.Errorf("%s key: VerifyAggregate accepted a perturbed instance", state)
		}
	}
}

// TestSharedKeyConcurrentVerify: one *VerifyingKey — a decoded one, and
// one whose stale tables send every check through the rebuild — serves 8
// goroutines at once. The fallback must not write to the key; run under
// -race (CI does).
func TestSharedKeyConcurrentVerify(t *testing.T) {
	_, vkA, _, _ := aggregateFixture(t, 0x7400, 1)
	_, vkB, proofs, publics := aggregateFixture(t, 0x7500, 2)
	forged := *proofs[0]
	forged.Ar.Neg(&forged.Ar)
	keys := lineTableKeys(t, vkA, vkB)

	for _, state := range []string{"decoded", "stale tables"} {
		vk := keys[state]
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					k := (g + i) % len(proofs)
					if err := Verify(vk, proofs[k], publics[k]); err != nil {
						t.Errorf("%s key, goroutine %d: valid proof rejected: %v", state, g, err)
					}
					if err := Verify(vk, &forged, publics[0]); err == nil {
						t.Errorf("%s key, goroutine %d: forgery accepted", state, g)
					}
					if err := BatchVerify(vk, proofs, publics, nil); err != nil {
						t.Errorf("%s key, goroutine %d: valid batch rejected: %v", state, g, err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// BenchmarkVerifyCachedLines is the verifier's steady state: a decoded
// constant-instance key (one public input, so the IC multi-exp is
// negligible and the pairing check is the cost) with e(α, β) and both
// line tables cached.
func BenchmarkVerifyCachedLines(b *testing.B) {
	_, vk, proofs, publics := aggregateFixture(b, 0x7600, 1)
	vk = decodedCopy(b, vk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(vk, proofs[0], publics[0]); err != nil {
			b.Fatal(err)
		}
	}
}
