package r1cs

import (
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// TestWitnessFilePageCache drives random reads and writes across far
// more pages than the minimum cache holds, so eviction and write-back
// are exercised, then checks every element against a resident
// reference.
func TestWitnessFilePageCache(t *testing.T) {
	n := witnessPageElems*3*witnessMinPages + 17 // 3× the page budget, odd tail
	ops := 4 * n
	if testing.Short() {
		// The race step: a miss moves two 128 KiB pages through the
		// instrumented codec, and the full size is a quarter-million
		// misses. Two pages over the budget and n/2 accesses still evict
		// thousands of times.
		n = witnessPageElems*(witnessMinPages+2) + 17
		ops = n / 2
	}
	wf, err := NewWitnessFile(t.TempDir(), n, 1) // floor: witnessMinPages pages
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()

	ref := make([]fr.Element, n)
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < ops; k++ {
		i := uint32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			var v fr.Element
			v.SetUint64(rng.Uint64())
			ref[i] = v
			wf.Set(i, &v)
		} else {
			got := wf.Get(i)
			if !got.Equal(&ref[i]) {
				t.Fatalf("Get(%d) diverges from reference mid-stream", i)
			}
		}
	}
	if wf.PageLoads() <= witnessMinPages {
		t.Fatalf("only %d page loads — eviction never engaged", wf.PageLoads())
	}

	// Sequential read-back through the flushed file must agree
	// everywhere, including elements only ever touched in cache.
	got := make([]fr.Element, n)
	if err := wf.ReadRange(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(&ref[i]) {
			t.Fatalf("element %d differs after flush + ReadRange", i)
		}
	}
	if err := wf.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestWitnessFileReadRangeBounds(t *testing.T) {
	wf, err := NewWitnessFile(t.TempDir(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	dst := make([]fr.Element, 10)
	if err := wf.ReadRange(dst, 95); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := wf.ReadRange(dst, -1); err == nil {
		t.Fatal("negative start accepted")
	}
}

// spillTestSystem builds a program-backed system by hand: x is the one
// secret input, y = x·x solves at level 0, out = y + x at level 1, with
// out public. Exercises input scatter, OpMul, OpLC, and the per-level
// flush.
func spillTestSystem(t *testing.T) *CompiledSystem {
	t.Helper()
	cs := testSystem()
	cs.PubInputs = nil
	cs.PubInputNames = nil
	cs.SecretInputs = []uint32{2}
	cs.Program = Program{
		Instrs: []Instr{
			{Op: OpMul, Out: 3, NOut: 1, AOff: 0, AEnd: 1, BOff: 1, BEnd: 2},
			{Op: OpLC, Out: 1, NOut: 1, AOff: 2, AEnd: 4},
		},
		Wires:    []uint32{2, 2, 3, 2},
		CoeffIdx: []uint32{0, 0, 0, 0},
		Dict:     []fr.Element{frU(1)},
		Levels:   []uint32{0, 1, 2},
	}
	return cs
}

// TestSolveSpilledMatchesSolve is the solver oracle: the spilled tape
// must reproduce Solve's witness bit for bit.
func TestSolveSpilledMatchesSolve(t *testing.T) {
	cs := spillTestSystem(t)
	secret := []fr.Element{frU(5)}
	want, err := cs.Solve(nil, secret)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := cs.IsSatisfied(want); !ok {
		t.Fatalf("resident solve violates constraint %d", bad)
	}

	wf, err := NewWitnessFile(t.TempDir(), cs.NbWires, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	if err := cs.SolveSpilled(nil, secret, wf, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]fr.Element, cs.NbWires)
	if err := wf.ReadRange(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("wire %d: spilled %v != resident %v", i, got[i], want[i])
		}
	}
}

func TestSolveSpilledRejectsBadInputs(t *testing.T) {
	cs := spillTestSystem(t)
	wf, err := NewWitnessFile(t.TempDir(), cs.NbWires, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	if err := cs.SolveSpilled(nil, nil, wf, nil); err == nil {
		t.Fatal("missing secret input accepted")
	}
	short, err := NewWitnessFile(t.TempDir(), cs.NbWires-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	if err := cs.SolveSpilled(nil, []fr.Element{frU(3)}, short, nil); err == nil {
		t.Fatal("undersized witness store accepted")
	}
}

// TestStripForSolve pins the solver-only copy's contract: dimensions,
// digest, and solving survive; the CSR arrays do not.
func TestStripForSolve(t *testing.T) {
	cs := spillTestSystem(t)
	stripped := cs.StripForSolve()
	if !stripped.Stripped() {
		t.Fatal("copy not marked stripped")
	}
	if cs.Stripped() {
		t.Fatal("original marked stripped")
	}
	if stripped.Dims() != cs.Dims() {
		t.Fatalf("dims changed: %+v vs %+v", stripped.Dims(), cs.Dims())
	}
	if stripped.DigestHex() != cs.DigestHex() {
		t.Fatal("digest changed")
	}
	if stripped.MatA().NbTerms() != 0 {
		t.Fatal("stripped copy still holds CSR terms")
	}
	want, err := cs.Solve(nil, []fr.Element{frU(7)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stripped.Solve(nil, []fr.Element{frU(7)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("wire %d differs on stripped solve", i)
		}
	}
}
