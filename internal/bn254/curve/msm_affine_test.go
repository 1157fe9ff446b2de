package curve

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/lanes"
	"zkrownn/internal/bn254/refimpl"
	"zkrownn/internal/obs"
)

// Edge cases of the two places a batch-affine cell adds outside its
// bucket inserts — the lockstep reduction (reduce) and the
// conflict queue's pairwise collapse — held to refimpl in both groups,
// on every flush backend this CPU has.

// oraclePoint is what the tests ask of a refimpl group element.
type oraclePoint[O any] interface {
	Add(q O) O
	Neg() O
	ScalarMul(k *big.Int) O
	Equal(q O) bool
}

// oracleMul is k·p for a signed k (refimpl's ScalarMul takes k ≥ 0).
func oracleMul[O oraclePoint[O]](p O, k *big.Int) O {
	if k.Sign() < 0 {
		return p.Neg().ScalarMul(new(big.Int).Neg(k))
	}
	return p.ScalarMul(k)
}

// msmOracle binds a group's curve types to refimpl's.
type msmOracle[A, J any, O oraclePoint[O]] struct {
	inf    O
	random func(rng *rand.Rand) O
	of     func(p *A) O
	ofJac  func(p *J) O
	affine func(p O) A
}

var (
	g1Oracle = msmOracle[G1Affine, G1Jac, refimpl.G1]{
		inf:    refimpl.G1Infinity(),
		random: func(rng *rand.Rand) refimpl.G1 { p := randG1(rng); return oracleG1Jac(&p) },
		of:     oracleG1, ofJac: oracleG1Jac, affine: fromOracleG1,
	}
	g2Oracle = msmOracle[G2Affine, G2Jac, refimpl.G2]{
		inf:    refimpl.G2Infinity(),
		random: func(rng *rand.Rand) refimpl.G2 { p := randG2(rng); return oracleG2Jac(&p) },
		of:     oracleG2, ofJac: oracleG2Jac, affine: fromOracleG2,
	}
)

// onFlushBackends runs f once per flush backend: the scalar formulas,
// and the IFMA lanes where the CPU has them.
func onFlushBackends(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	gates := []bool{false}
	if lanes.SupportIFMA {
		gates = append(gates, true)
	} else {
		t.Log("no AVX-512 IFMA on this CPU: the scalar flush only")
	}
	for _, on := range gates {
		lanes.SupportIFMA = on
		t.Run(Backend(), func(t *testing.T) {
			t.Logf("flush backend: %s", Backend())
			f(t)
		})
	}
}

// bucketTerm is one bucket of a reduction case: m times base point base,
// ∞ when m is 0.
type bucketTerm struct {
	base int
	m    int64
}

// reduceWindow fills one window of nb buckets whose segments are L long.
type reduceWindow struct {
	name string
	fill func(w []bucketTerm, L int, rng *rand.Rand)
}

func reduceWindows() []reduceWindow {
	set := func(w []bucketTerm, b int, t bucketTerm) {
		if b >= 0 && b < len(w) {
			w[b] = t
		}
	}
	return []reduceWindow{
		{"all ∞", func([]bucketTerm, int, *rand.Rand) {}},
		{"single", func(w []bucketTerm, _ int, _ *rand.Rand) { set(w, len(w)/2+1, bucketTerm{0, 1}) }},
		{"all equal", func(w []bucketTerm, _ int, _ *rand.Rand) {
			for b := range w {
				w[b] = bucketTerm{0, 1}
			}
		}},
		// P and −P in the buckets either side of the first segment
		// boundary; and in the third segment, from its top, P, −2P, P: its
		// sum reaches ∞ at the second step and its accumulator at the third.
		{"cancelling", func(w []bucketTerm, L int, _ *rand.Rand) {
			set(w, L-1, bucketTerm{0, 1})
			set(w, L, bucketTerm{0, -1})
			set(w, 3*L-1, bucketTerm{1, 1})
			set(w, 3*L-2, bucketTerm{1, -2})
			set(w, 3*L-3, bucketTerm{1, 1})
		}},
		{"random", func(w []bucketTerm, _ int, rng *rand.Rand) {
			for b := range w {
				if rng.Intn(4) != 0 {
					w[b] = bucketTerm{rng.Intn(3), int64(rng.Intn(7) - 3)}
				}
			}
		}},
	}
}

// reduceShape is one cell of the reduction table: g windows at width c,
// window w filled by windows[w % len(windows)].
type reduceShape struct {
	name    string
	c, g    int
	windows []reduceWindow
}

func reduceShapes() []reduceShape {
	kinds := reduceWindows()
	var shapes []reduceShape
	for _, k := range kinds {
		shapes = append(shapes, reduceShape{"g=1, " + k.name, 9, 1, []reduceWindow{k}})
	}
	return append(shapes,
		reduceShape{"g=8, one window of each kind", 9, 8, kinds},
		reduceShape{"g=8, all ∞", 9, 8, kinds[:1]},
		// c = 2: one segment, and more windows than a flush holds, so every
		// step takes two flushes.
		reduceShape{"g=64 at c=2", 2, 64, []reduceWindow{kinds[4], kinds[2], kinds[1]}},
	)
}

// testReduceAffine runs reduce over every reduceShape and holds each
// window's sum to refimpl's Σ_b (b+1)·B_b.
func testReduceAffine[A, J any, P Jacobian[A, J], CV msmCurve[A, J], O oraclePoint[O]](t *testing.T, cv CV, or msmOracle[A, J, O], seed int64) {
	rng := rand.New(rand.NewSource(seed))
	bases := []O{or.random(rng), or.random(rng), or.random(rng)}
	// multiple[k][m+3] is m·bases[k] in affine form.
	var multiple [3][7]A
	for k, b := range bases {
		for m := -3; m <= 3; m++ {
			multiple[k][m+3] = or.affine(oracleMul(b, big.NewInt(int64(m))))
		}
	}
	onFlushBackends(t, func(t *testing.T) {
		for _, sh := range reduceShapes() {
			nb := 1 << (sh.c - 1)
			L := nb / reduceSegments(sh.g, nb, msmBatch(sh.g*nb))
			r := &msmRun[A, J, P, CV]{cv: cv, c: sh.c, numBuckets: nb, numChunks: 1, used: sh.g,
				partials: make([]J, sh.g)}
			cell := &msmCell[A, J]{msmTask: msmTask{w1: sh.g}}
			buckets := r.scratch(cell).buckets
			terms := make([]bucketTerm, sh.g*nb)
			wants := make([]O, sh.g)
			for w := range sh.g {
				win := terms[w*nb : (w+1)*nb]
				sh.windows[w%len(sh.windows)].fill(win, L, rng)
				coef := make([]*big.Int, len(bases))
				for k := range coef {
					coef[k] = new(big.Int)
				}
				for b, term := range win {
					buckets[w*nb+b] = multiple[term.base][term.m+3]
					coef[term.base].Add(coef[term.base], big.NewInt(int64(b+1)*term.m))
				}
				wants[w] = or.inf
				for k, base := range bases {
					wants[w] = wants[w].Add(oracleMul(base, coef[k]))
				}
			}
			r.reduce(cell)
			for w := range sh.g {
				if !or.ofJac(&r.partials[w]).Equal(wants[w]) {
					t.Errorf("%s (L=%d): window %d (%s) differs from refimpl's Σ (b+1)·B_b",
						sh.name, L, w, sh.windows[w%len(sh.windows)].name)
				}
			}
		}
	})
}

// TestReduceAffineG1AgainstRefimpl holds the lockstep reduction of a
// batch-affine G1 cell to refimpl: empty, single, all-equal and
// cancelling windows, alone and in a full group, on each flush backend.
func TestReduceAffineG1AgainstRefimpl(t *testing.T) {
	testReduceAffine[G1Affine, G1Jac, *G1Jac](t, g1Msm{}, g1Oracle, 351)
}

// TestReduceAffineG2AgainstRefimpl is TestReduceAffineG1AgainstRefimpl
// in G2.
func TestReduceAffineG2AgainstRefimpl(t *testing.T) {
	testReduceAffine[G2Affine, G2Jac, *G2Jac](t, g2Msm{}, g2Oracle, 352)
}

// conflictCase is one input of the conflict-queue tests: n points, of
// which point i takes scalar(i); same puts one point at every index but
// the last.
type conflictCase struct {
	name   string
	n      int
	same   bool
	scalar func(i int) int64
}

// conflictCases crowd one bucket, or every bucket of a full batch, so
// that the conflict queue fills and collapses. 600 points are one chunk
// whatever the workers, whose queue fills once and collapses once more at
// the end. At 100 points the width MSMWindowSize picks gives a lone
// used window a cell of 16 buckets and a batch of four.
func conflictCases() []conflictCase {
	alternating := func(i int) int64 { return 1 - 2*int64(i%2) }
	return []conflictCase{
		{"all 1", 600, false, func(int) int64 { return 1 }},
		{"all −1", 600, false, func(int) int64 { return -1 }},
		{"all 5", 600, false, func(int) int64 { return 5 }},
		{"alternating ±1", 600, false, alternating},
		// Neighbours in the queue cancel: the first tree level pairs P with
		// −P throughout, and each ∞ must drop out. Added back in as a
		// chord, (0, 0) would go unnoticed against P alone — P + (0, 0) − P
		// is (0, 0) again by the chord formulas — hence a last point of
		// its own.
		{"one point, alternating ±1", 600, true, alternating},
		// Every pair is a tangent.
		{"one point, all 1", 600, true, func(int) int64 { return 1 }},
		// At c = 12 (2048 buckets, a 512-op batch) on one worker (one
		// chunk), 511 distinct buckets fill the batch, the next 511 points
		// queue one op behind each and one more fills the queue: the tree
		// shrinks it by a single pair.
		{"full queue over 511 buckets", 1100, false, func(i int) int64 { return 1 + int64(i%511) }},
		{"all 1, 100 points", 100, false, func(int) int64 { return 1 }},
		{"one point, alternating ±1, 100 points", 100, true, alternating},
	}
}

// testConflictQueue runs the conflictCases over a prefix of chain,
// distinct finite points (its first at every index but the last for a
// case with same), through the resident and the streamed MSM, at the
// width MSMWindowSize picks, at c = 12 and at c = 2 (two buckets a
// window: a lone window's batch is a single op), on one worker and two,
// and holds both to refimpl's Σ kᵢ·Pᵢ.
func testConflictQueue[A, J any, P Jacobian[A, J], CV msmCurve[A, J], O oraclePoint[O]](t *testing.T, cv CV, or msmOracle[A, J, O], chain []A) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	onFlushBackends(t, func(t *testing.T) {
		for _, cc := range conflictCases() {
			n := cc.n
			points := chain[:n]
			if cc.same {
				points = make([]A, n)
				for i := range points[:n-1] {
					points[i] = chain[0]
				}
				points[n-1] = chain[n-1]
			}
			scalars := make([]fr.Element, n)
			// byScalar sums the points of each scalar, so the oracle takes
			// one scalar multiplication per distinct scalar.
			byScalar := map[int64]O{}
			for i := range scalars {
				k := cc.scalar(i)
				scalars[i].SetInt64(k)
				sum, ok := byScalar[k]
				if !ok {
					sum = or.inf
				}
				byScalar[k] = sum.Add(or.of(&points[i]))
			}
			want := or.inf
			for k, sum := range byScalar {
				want = want.Add(oracleMul(sum, big.NewInt(k)))
			}
			src := func(dst []A, start int) error { copy(dst, points[start:]); return nil }
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, c := range []int{MSMWindowSize(n), 12, 2} {
					name := fmt.Sprintf("%s, c=%d, GOMAXPROCS %d", cc.name, c, procs)
					resident := multiExpEntry[A, J, P](cv, points, nil, DecomposeScalars(scalars, c), obs.Scope{})
					if !or.ofJac(&resident).Equal(want) {
						t.Errorf("%s: resident MSM differs from refimpl's Σ kᵢ·Pᵢ", name)
					}
					streamed, err := multiExpStream[A, J, P](cv, src, n, residentScalars(scalars), c, 600, obs.Scope{})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !or.ofJac(&streamed).Equal(want) {
						t.Errorf("%s: streamed MSM differs from refimpl's Σ kᵢ·Pᵢ", name)
					}
				}
			}
		}
	})
}

// TestMultiExpG1ConflictQueueAgainstRefimpl is the sibling of
// TestMultiExpG1AgainstRefimpl for the batch-affine cells' conflict
// queue: repeated scalars, a point meeting its negation, tangents and a
// queue the tree barely shrinks, resident and streamed.
func TestMultiExpG1ConflictQueueAgainstRefimpl(t *testing.T) {
	chain, _ := msmBenchG1Input(1100)
	testConflictQueue[G1Affine, G1Jac, *G1Jac](t, g1Msm{}, g1Oracle, chain)
}

// TestMultiExpG2ConflictQueueAgainstRefimpl is
// TestMultiExpG1ConflictQueueAgainstRefimpl in G2.
func TestMultiExpG2ConflictQueueAgainstRefimpl(t *testing.T) {
	chain, _ := msmBenchG2Input(1100)
	testConflictQueue[G2Affine, G2Jac, *G2Jac](t, g2Msm{}, g2Oracle, chain)
}
