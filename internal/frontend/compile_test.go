package frontend

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs/r1cstest"
)

// buildKitchenSink exercises every wire-allocating builder operation —
// Mul, Reduce, Inverse, Div, IsZero, Select, ToBinary — plus public
// inputs, outputs, and wide sums, over the given input values.
func buildKitchenSink(pubVals, secVals []fr.Element) (*CompileResult, error) {
	b := NewBuilder()
	p0 := b.PublicInput("p", pubVals[0])
	p1 := b.PublicInput("p", pubVals[1])
	s := make([]Variable, len(secVals))
	for i, v := range secVals {
		s[i] = b.SecretInput("s", v)
	}

	prod := b.Mul(s[0], s[1])
	sum := b.Sum(s...)
	red := b.Reduce(sum)
	inv := b.Inverse(b.Add(red, b.One()))
	quot := b.Div(prod, b.Add(prod, b.One()))
	iz := b.IsZero(b.Sub(s[2], s[2])) // always zero → 1
	sel := b.Select(iz, prod, quot)
	bits := b.ToBinary(p0, 16)
	_ = bits
	mix := b.Sum(prod, red, inv, quot, sel, p1)
	b.PublicOutput("mix", mix)
	b.PublicOutput("claim", iz)
	return b.Compile()
}

func kitchenInputs(seed int64) (pub, sec []fr.Element) {
	rng := rand.New(rand.NewSource(seed))
	pub = []fr.Element{frOf(uint64(rng.Intn(1 << 15))), frOf(uint64(rng.Intn(1000)))}
	sec = make([]fr.Element, 6)
	for i := range sec {
		sec[i] = frOf(uint64(rng.Intn(1000) + 1))
	}
	return pub, sec
}

// TestSolveMatchesEagerWitness is the frontend-level oracle: replaying
// the recorded solver program over the recorded inputs must reproduce
// the eager witness exactly, and the eager witness must satisfy the CSR
// system.
func TestSolveMatchesEagerWitness(t *testing.T) {
	pub, sec := kitchenInputs(1)
	res, err := buildKitchenSink(pub, sec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := res.System.IsSatisfied(res.Witness); !ok {
		t.Fatalf("eager witness violates constraint %d", bad)
	}
	solved, err := res.System.SolveAssignment(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solved {
		if !solved[i].Equal(&res.Witness[i]) {
			t.Fatalf("wire %d: solved %v != eager %v", i, solved[i], res.Witness[i])
		}
	}
	if p := &res.System.Program; len(p.Instrs) == 0 || len(p.Levels) < 2 {
		t.Fatal("compile recorded no solver program")
	}
	// The math/big row oracle, which shares no code with the builder or
	// the CSR walker, must read the same rows the same way.
	rows := r1cstest.RowsOf(res.System)
	if res.System.DigestHex() != r1cstest.Digest(rows) {
		t.Fatal("compiled digest differs from the oracle's")
	}
	if ok, bad := r1cstest.Satisfied(rows, r1cstest.Big(res.Witness)); !ok {
		t.Fatalf("oracle: eager witness violates constraint %d", bad)
	}
}

// TestSolveManyFreshInputs: one compiled circuit, new inputs — Solve
// must agree with a from-scratch eager build of the same circuit over
// those inputs (the compile-once / solve-many contract).
func TestSolveManyFreshInputs(t *testing.T) {
	resA, err := buildKitchenSink(kitchenInputs(1))
	if err != nil {
		t.Fatal(err)
	}
	pubB, secB := kitchenInputs(2)
	resB, err := buildKitchenSink(pubB, secB)
	if err != nil {
		t.Fatal(err)
	}
	if resA.System.DigestHex() != resB.System.DigestHex() {
		t.Fatal("kitchen-sink circuit is not data-oblivious")
	}
	solved, err := resA.System.SolveAssignment(resB.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solved {
		if !solved[i].Equal(&resB.Witness[i]) {
			t.Fatalf("wire %d: solve-many %v != eager rebuild %v", i, solved[i], resB.Witness[i])
		}
	}
}

// TestConcurrentSolve races many goroutines over ONE compiled system
// with distinct inputs (run under -race in CI): CompiledSystem must be
// immutable under Solve.
func TestConcurrentSolve(t *testing.T) {
	res, err := buildKitchenSink(kitchenInputs(3))
	if err != nil {
		t.Fatal(err)
	}
	cs := res.System
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				ref, err := buildKitchenSink(kitchenInputs(seed))
				if err != nil {
					errs <- err
					return
				}
				solved, err := cs.SolveAssignment(ref.Assignment)
				if err != nil {
					errs <- err
					return
				}
				for i := range solved {
					if !solved[i].Equal(&ref.Witness[i]) {
						errs <- fmt.Errorf("goroutine seed %d wire %d mismatch", seed, i)
						return
					}
				}
				if ok, bad := cs.IsSatisfied(solved); !ok {
					errs <- fmt.Errorf("goroutine seed %d: constraint %d violated", seed, bad)
					return
				}
			}
		}(int64(10 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- mergeLC ---

// refMergeLC is the original map-and-sort implementation, kept as the
// behavioral oracle for the k-way merge.
func refMergeLC(lcs ...linearCombination) linearCombination {
	total := 0
	for _, lc := range lcs {
		total += len(lc)
	}
	acc := make(map[int]fr.Element, total)
	for _, lc := range lcs {
		for _, t := range lc {
			cur := acc[t.wire]
			cur.Add(&cur, &t.coeff)
			acc[t.wire] = cur
		}
	}
	out := make(linearCombination, 0, len(acc))
	for w, c := range acc {
		if c.IsZero() {
			continue
		}
		out = append(out, term{wire: w, coeff: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].wire < out[j].wire })
	return out
}

// randLC draws a sorted LC with unique wires; some coefficients are
// negations of small values so cross-LC cancellation to zero happens.
func randLC(rng *rand.Rand, maxLen, wireSpace int) linearCombination {
	n := rng.Intn(maxLen + 1)
	wires := rng.Perm(wireSpace)[:n]
	sort.Ints(wires)
	lc := make(linearCombination, n)
	for i, w := range wires {
		var c fr.Element
		c.SetInt64(int64(rng.Intn(7)) - 3) // in {-3..3}, zeros included
		lc[i] = term{wire: w, coeff: c}
	}
	return lc
}

func lcEqual(a, b linearCombination) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].wire != b[i].wire || !a[i].coeff.Equal(&b[i].coeff) {
			return false
		}
	}
	return true
}

func TestMergeLCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(6) // 0..5 inputs covers every merge strategy
		lcs := make([]linearCombination, k)
		ref := make([]linearCombination, k)
		for i := range lcs {
			lcs[i] = randLC(rng, 10, 24)
			ref[i] = slices.Clone(lcs[i])
		}
		got := mergeLC(lcs...)
		want := refMergeLC(ref...)
		if !lcEqual(got, want) {
			t.Fatalf("trial %d (k=%d): merge %v != reference %v", trial, k, got, want)
		}
	}
	// Wide Sum shape: many singleton LCs, some sharing wires.
	for trial := 0; trial < 50; trial++ {
		k := 3 + rng.Intn(64)
		lcs := make([]linearCombination, k)
		ref := make([]linearCombination, k)
		for i := range lcs {
			lcs[i] = randLC(rng, 2, 8)
			ref[i] = slices.Clone(lcs[i])
		}
		got := mergeLC(lcs...)
		want := refMergeLC(ref...)
		if !lcEqual(got, want) {
			t.Fatalf("wide trial %d (k=%d): merge %v != reference %v", trial, k, got, want)
		}
	}
}

// BenchmarkMergeLC tracks the compile-path hot spot: the pairwise shape
// (chained Adds over reduced wires) and the wide shape (Sum over a
// dense layer's products).
func BenchmarkMergeLC(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	mk := func(n, space int) linearCombination {
		wires := rng.Perm(space)[:n]
		sort.Ints(wires)
		lc := make(linearCombination, n)
		for i, w := range wires {
			lc[i] = term{wire: w, coeff: frOf(uint64(i + 1))}
		}
		return lc
	}
	b.Run("pair-32", func(b *testing.B) {
		x, y := mk(32, 64), mk(32, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeLC(x, y)
		}
	})
	b.Run("wide-1024", func(b *testing.B) {
		lcs := make([]linearCombination, 1024)
		for i := range lcs {
			lcs[i] = linearCombination{{wire: i, coeff: frOf(uint64(i + 1))}}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeLC(lcs...)
		}
	})
	b.Run("kway-16x64", func(b *testing.B) {
		lcs := make([]linearCombination, 16)
		for i := range lcs {
			lcs[i] = mk(64, 256)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeLC(lcs...)
		}
	})
}
