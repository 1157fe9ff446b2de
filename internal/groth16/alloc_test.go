//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// handed, so allocation counts that lean on the pools are pinned only
// without it.

package groth16

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestVerifyAllocs bounds what one committed-shaped Verify allocates on a
// decoded key: at most 4 kB. B's line table, about 74 kB, is built in
// pooled scratch and must not show up here.
func TestVerifyAllocs(t *testing.T) {
	const limit = 4 << 10
	vk, proof, _, public := committedFixture(t)
	verify := func() {
		if err := Verify(vk, proof, public); err != nil {
			t.Fatal(err)
		}
	}
	// One P, so every Get finds the line table the previous Put left in
	// that P's cache rather than missing on a migrated goroutine; and the
	// earlier tests' garbage collected first, so that no collection —
	// which empties sync.Pools — is due mid-measurement. Then fill the
	// pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	verify()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 100
	for range runs {
		verify()
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / runs; got > limit {
		t.Errorf("Verify allocates %d bytes a call, want at most %d", got, limit)
	}
}

// TestOutOfCoreProveAllocs bounds what one fully out-of-core prove — key,
// constraint rows and witness on disk — allocates on a 2^13 domain once
// the pools are warm: at most half the 15.7 MB a prove allocated before
// its streamed MSMs shared one bucket set and before their point and raw
// read buffers, the out-of-core transforms' scratch and the row walk's
// evaluation vectors were pooled.
func TestOutOfCoreProveAllocs(t *testing.T) {
	const before = 15_700_000
	f := newResidencyFixture(t, 1<<13-3)
	f.spk.Chunk = 0 // the prover's own chunk size
	wf := spill(t, t.TempDir(), f.witness)
	prove := func() {
		if _, err := ProveSpilled(f.csf, f.spk, wf, rand.New(rand.NewSource(881))); err != nil {
			t.Fatal(err)
		}
	}
	prove() // fill the pools and the witness page cache
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 3
	for range runs {
		prove()
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / runs; got > before/2 {
		t.Errorf("an out-of-core prove allocates %d bytes, want at most %d (half of %d)", got, before/2, before)
	}
}
