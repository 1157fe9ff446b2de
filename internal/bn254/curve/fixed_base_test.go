package curve

import (
	"math/big"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// Tests of the fixed-base kernel: every scalar shape and block layout
// against an oracle that walks the canonical bits, and a deterministic
// count of the additions it performs.

// bitSerialMul is the oracle: k·base as the sum of 2^b·base over the set
// bits b of the 254-bit number k is stored as, by Jacobian mixed
// additions. It shares the doubling chain between scalars and nothing
// with the recoder or the batch-affine flush.
func bitSerialMul[A, J any, P Jacobian[A, J]](cv msmCurve[A, J], base J, ks []fr.Element) []A {
	pows := make([]J, fr.Bits)
	for b := range pows {
		pows[b] = base
		P(&base).DoubleAssign()
	}
	powsAff := cv.batchToAffine(pows)
	bit := scalarBits(ks)
	out := make([]J, len(ks)) // zero Jacobian value has Z = 0: infinity
	for i := range out {
		for b := 0; b < fr.Bits; b++ {
			if bit(i, b) {
				P(&out[i]).AddMixed(&powsAff[b])
			}
		}
	}
	return cv.batchToAffine(out)
}

// countingCurve hands the kernel adders that count the additions they
// are asked for (an accumulator's first entry, copied into place,
// counts as one).
type countingCurve[A, J any] struct {
	msmCurve[A, J]
	adds *atomic.Int64
}

func (c countingCurve[A, J]) batchAdder(batchSize int) batchOps[A] {
	return countingAdder[A]{c.msmCurve.batchAdder(batchSize), c.adds}
}

type countingAdder[A any] struct {
	batchOps[A]
	adds *atomic.Int64
}

func (a countingAdder[A]) flush(buckets []A, idx []int32, pts []A) {
	a.adds.Add(int64(len(idx)))
	a.batchOps.flush(buckets, idx, pts)
}

// edgeScalars returns the scalars the recoder and the table treat
// specially: the ends of the range and of the folded range, single
// digits at and around a window boundary and in the top windows with
// either sign, and every window at its largest magnitude.
func edgeScalars() []fr.Element {
	r := fr.Modulus()
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(-1), big.NewInt(-2),
		new(big.Int).Rsh(r, 1),                                  // (r-1)/2: the largest unfolded scalar
		new(big.Int).Add(new(big.Int).Rsh(r, 1), big.NewInt(1)), // (r+1)/2: the largest folded magnitude
	}
	for _, k := range []uint{10, 11, 12, 127, 252} {
		v := new(big.Int).Lsh(big.NewInt(1), k)
		vals = append(vals, v, new(big.Int).Neg(v))
	}
	maximal := new(big.Int)
	for w := 0; w < fixedBaseWindows-1; w++ {
		maximal.SetBit(maximal, w*fixedBaseWindow+fixedBaseWindow-1, 1)
	}
	vals = append(vals, maximal, new(big.Int).Neg(maximal))
	out := make([]fr.Element, len(vals))
	for i, v := range vals {
		out[i].SetBigInt(v)
	}
	return out
}

// fixedBaseScalars returns n scalars: the edge cases, a run of 64
// copies of one value, and random full-width values for the rest.
func fixedBaseScalars(rng *rand.Rand, n int) []fr.Element {
	ks := fullScalars(rng, n)
	copy(ks, edgeScalars())
	for i := 100; i < min(164, n); i++ {
		ks[i] = ks[min(100, n-1)]
	}
	return ks
}

// checkFixedBase runs the kernel for one base through a counting table
// and checks the results against the oracle at every block layout, the
// results' independence of the worker count, the zero-clustered layout,
// and the work gate.
func checkFixedBase[A comparable, J any, P Jacobian[A, J]](t *testing.T, cv msmCurve[A, J], base J) {
	var adds atomic.Int64
	table := newFixedBaseTable[A, J, P](countingCurve[A, J]{cv, &adds}, base)
	if len(table.entries) > 25*1024 {
		t.Errorf("table holds %d entries, want ≤ 25·1024", len(table.entries))
	}
	if got := adds.Load(); got > int64(len(table.entries)) {
		t.Errorf("table build took %d additions for %d entries", got, len(table.entries))
	}

	rng := rand.New(rand.NewSource(71))
	sizes := []int{0, 1, fixedBaseBlock - 1, fixedBaseBlock, fixedBaseBlock + 1, 3*fixedBaseBlock + 7}
	if testing.Short() {
		sizes = []int{0, 1, 40, 2*fixedBaseBlock + 7}
	}
	for _, n := range sizes {
		ks := fixedBaseScalars(rng, n)
		want := bitSerialMul[A, J, P](cv, base, ks)
		nonzero := 0
		for i := range ks {
			if !ks[i].IsZero() {
				nonzero++
			}
		}
		var got [2][]A
		for procs := 1; procs <= 2; procs++ {
			prev := runtime.GOMAXPROCS(procs)
			adds.Store(0)
			got[procs-1] = table.MulBatch(ks)
			runtime.GOMAXPROCS(prev)
			if a := adds.Load(); a > int64(fixedBaseWindows*nonzero) {
				t.Errorf("n=%d procs=%d: %d additions for %d nonzero scalars, want ≤ %d each",
					n, procs, a, nonzero, fixedBaseWindows)
			}
		}
		for i := range want {
			if got[0][i] != want[i] {
				t.Fatalf("n=%d: scalar %d (%s) differs from the bit-serial oracle", n, i, ks[i].String())
			}
			if got[1][i] != got[0][i] {
				t.Fatalf("n=%d: scalar %d differs between 1 and 2 workers", n, i)
			}
		}

		// The vTau shape: the same scalars behind a stretch of zeros give
		// the same points behind a stretch of infinities, for no additions
		// more.
		adds.Store(0)
		clustered := table.MulBatch(append(make([]fr.Element, n), ks...))
		if a := adds.Load(); a > int64(fixedBaseWindows*nonzero) {
			t.Errorf("n=%d: zero-clustered vector took %d additions for %d nonzero scalars", n, a, nonzero)
		}
		var infinity A
		for i := range want {
			if clustered[i] != infinity {
				t.Fatalf("n=%d: zero scalar %d is not infinity", n, i)
			}
			if clustered[n+i] != want[i] {
				t.Fatalf("n=%d: scalar %d moved by a zero prefix", n, i)
			}
		}
	}

	adds.Store(0)
	table.MulBatch(make([]fr.Element, 3*fixedBaseBlock))
	if a := adds.Load(); a != 0 {
		t.Errorf("%d additions for an all-zero vector", a)
	}
}

func TestFixedBaseG1MatchesBitSerial(t *testing.T) {
	bases := map[string]G1Jac{"generator": G1Generator(), "random": randG1(rand.New(rand.NewSource(72)))}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			checkFixedBase[G1Affine, G1Jac](t, g1Msm{}, base)
		})
	}
}

func TestFixedBaseG2MatchesBitSerial(t *testing.T) {
	bases := map[string]G2Jac{"generator": G2Generator()}
	if !testing.Short() {
		bases["random"] = randG2(rand.New(rand.NewSource(73)))
	}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			checkFixedBase[G2Affine, G2Jac](t, g2Msm{}, base)
		})
	}
}

// TestFixedBaseExportedTables runs the exported constructors and
// MulBatch, which the oracle tests bypass for the counting table, and
// the infinity base.
func TestFixedBaseExportedTables(t *testing.T) {
	ks := fixedBaseScalars(rand.New(rand.NewSource(74)), 200)
	g1, g2 := G1Generator(), G2Generator()
	got1, want1 := NewG1FixedBaseTable(&g1).MulBatch(ks), bitSerialMul[G1Affine, G1Jac](g1Msm{}, g1, ks)
	got2, want2 := NewG2FixedBaseTable(&g2).MulBatch(ks), bitSerialMul[G2Affine, G2Jac](g2Msm{}, g2, ks)
	for i := range ks {
		if got1[i] != want1[i] || got2[i] != want2[i] {
			t.Fatalf("scalar %d differs from the bit-serial oracle", i)
		}
	}
	var inf G1Jac
	inf.SetInfinity()
	for i, p := range NewG1FixedBaseTable(&inf).MulBatch(ks) {
		if !p.IsInfinity() {
			t.Fatalf("scalar %d of the infinity base is not infinity", i)
		}
	}
}

// TestFixedBaseEdgeScalarsReachTableEnds pins what the oracle tests rely
// on: the edge scalars reach the table's last entry of every window with
// either sign, and the carry window above them.
func TestFixedBaseEdgeScalarsReachTableEnds(t *testing.T) {
	dec := DecomposeScalars(edgeScalars(), fixedBaseWindow)
	if dec.used != fixedBaseWindows {
		t.Fatalf("edge scalars use %d windows, want %d", dec.used, fixedBaseWindows)
	}
	for w := 0; w < fixedBaseWindows-1; w++ {
		var lo, hi int16
		for _, d := range dec.row(w) {
			lo, hi = min(lo, d), max(hi, d)
		}
		if lo != -fixedBaseEntries || hi != fixedBaseEntries {
			t.Errorf("window %d: digits span [%d, %d], want ±%d", w, lo, hi, fixedBaseEntries)
		}
	}
}
