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
