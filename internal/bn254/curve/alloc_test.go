//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// handed, so allocation counts that lean on the pools are pinned only
// without it.

package curve

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestMultiExpICAllocs keeps the verifier's IC multi-exponentiation —
// 4,130 points, the benchmark's public-instance verify — at or under what
// the per-task Pippenger core that msmRun replaced allocated on these
// inputs: 72 allocations and 984,540 bytes a call at one worker, 102 and
// 1,068,606 at two. A run holds more per call than a task did (the run,
// its cells); pooled cell scratch carrying its batch adder is what pays
// for it.
func TestMultiExpICAllocs(t *testing.T) {
	points, scalars := msmTestVectors(rand.New(rand.NewSource(1)), 4130)
	for _, c := range []struct {
		procs         int
		allocs, bytes uint64
	}{{1, 72, 984540}, {2, 102, 1068606}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			MultiExpG1(points, scalars) // fill the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 20
			for range runs {
				MultiExpG1(points, scalars)
			}
			runtime.ReadMemStats(&after)
			allocs := (after.Mallocs - before.Mallocs) / runs
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			if allocs > c.allocs || bytes > c.bytes {
				t.Errorf("GOMAXPROCS %d: %d allocations and %d bytes a call, want at most %d and %d",
					c.procs, allocs, bytes, c.allocs, c.bytes)
			}
		}()
	}
}

// TestScalarMulAllocs keeps the one generic wNAF ScalarMul at or under
// the 10 allocations a call its two per-group copies made. A local whose
// address reaches a Jacobian method in the generic body moves to the
// heap, so a stray one shows here.
func TestScalarMulAllocs(t *testing.T) {
	k := randFr(rand.New(rand.NewSource(7)))
	g1, g2 := G1Generator(), G2Generator()
	var p1 G1Jac
	var p2 G2Jac
	for _, c := range []struct {
		group string
		mul   func()
	}{
		{"G1", func() { p1.ScalarMul(&g1, &k) }},
		{"G2", func() { p2.ScalarMul(&g2, &k) }},
	} {
		if n := testing.AllocsPerRun(20, c.mul); n > 10 {
			t.Errorf("%s: %v allocations a ScalarMul, want at most 10", c.group, n)
		}
	}
}
