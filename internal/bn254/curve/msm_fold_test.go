package curve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
)

// Tests of the witness-shaped MSM: sign-folded recoding against a
// bit-serial oracle through every driver, the deterministic work gate,
// and the cell planner's layout table.

// chainPointsG1 returns n distinct affine points P, P+G, P+2G, … with
// the MSM's point edge cases mixed in (infinity every 11th, a repeat
// every 7th). One addition per point, so the bit-serial oracle below —
// not point generation — sets the cost of a property-test case.
func chainPointsG1(rng *rand.Rand, n int) []G1Affine {
	g := G1Generator()
	var ga G1Affine
	ga.FromJacobian(&g)
	jacs := make([]G1Jac, n)
	cur := randG1(rng)
	for i := range jacs {
		jacs[i] = cur
		cur.AddMixed(&ga)
	}
	points := BatchJacToAffineG1(jacs)
	for i := range points {
		switch {
		case i%11 == 5:
			points[i] = G1Affine{}
		case i%7 == 6:
			points[i] = points[i-1]
		}
	}
	return points
}

// chainPointsG2 is the G2 counterpart of chainPointsG1.
func chainPointsG2(rng *rand.Rand, n int) []G2Affine {
	g := G2Generator()
	var ga G2Affine
	ga.FromJacobian(&g)
	jacs := make([]G2Jac, n)
	cur := randG2(rng)
	for i := range jacs {
		jacs[i] = cur
		cur.AddMixed(&ga)
	}
	points := BatchJacToAffineG2(jacs)
	for i := range points {
		switch {
		case i%11 == 5:
			points[i] = G2Affine{}
		case i%7 == 6:
			points[i] = points[i-1]
		}
	}
	return points
}

// scalarBits returns bit b of every canonical scalar — what the
// bit-serial oracles walk. A folded scalar r−x is walked as the 254-bit
// number it is stored as, so the oracle shares nothing with the
// recoder's view of it.
func scalarBits(scalars []fr.Element) func(i, b int) bool {
	limbs := make([][fr.Limbs]uint64, len(scalars))
	for i := range scalars {
		limbs[i] = scalars[i].RegularLimbs()
	}
	return func(i, b int) bool { return limbs[i][b/64]>>(b%64)&1 == 1 }
}

// bitSerialMSMG1 is the naive oracle: double-and-add over the scalar
// bits, most significant first, all points sharing one accumulator.
func bitSerialMSMG1(points []G1Affine, scalars []fr.Element) G1Jac {
	bit := scalarBits(scalars)
	var acc G1Jac
	acc.SetInfinity()
	for b := fr.Bits - 1; b >= 0; b-- {
		acc.DoubleAssign()
		for i := range points {
			if bit(i, b) {
				acc.AddMixed(&points[i])
			}
		}
	}
	return acc
}

// bitSerialMSMG2 is the G2 counterpart of bitSerialMSMG1.
func bitSerialMSMG2(points []G2Affine, scalars []fr.Element) G2Jac {
	bit := scalarBits(scalars)
	var acc G2Jac
	acc.SetInfinity()
	for b := fr.Bits - 1; b >= 0; b-- {
		acc.DoubleAssign()
		for i := range points {
			if bit(i, b) {
				acc.AddMixed(&points[i])
			}
		}
	}
	return acc
}

// scalarShape names one scalar distribution of the property tests.
type scalarShape struct {
	name string
	draw func(rng *rand.Rand, n int) []fr.Element
}

// foldShapes are the distributions sign folding must be invisible on:
// sign-mixed ±x at each magnitude (one window, a few, half the scalar),
// the witness mix, and full-width values folding cannot shorten — and two
// a streamed MSM's one bucket set must carry across chunks: one
// repeated value, whose bucket collapses the conflict queue in every
// chunk, and a zero first half, whose leading chunks have no digit at all.
func foldShapes() []scalarShape {
	shapes := []scalarShape{
		{"witness32", func(rng *rand.Rand, n int) []fr.Element { return witnessScalars(rng, n, 32) }},
		{"full", fullScalars},
	}
	for _, k := range []int{1, 16, 40, 64, 128} {
		shapes = append(shapes, scalarShape{fmt.Sprintf("signed%d", k), func(rng *rand.Rand, n int) []fr.Element {
			return signedScalars(rng, n, k)
		}})
	}
	return append(shapes,
		scalarShape{"repeated", func(_ *rand.Rand, n int) []fr.Element {
			s := make([]fr.Element, n)
			for i := range s {
				s[i].SetUint64(37)
			}
			return s
		}},
		scalarShape{"zeroHalf", func(rng *rand.Rand, n int) []fr.Element {
			s := fullScalars(rng, n)
			clear(s[:n/2])
			return s
		}},
	)
}

// scalarSliceSource adapts a scalar slice to a ScalarSource.
func scalarSliceSource(scalars []fr.Element) ScalarSource {
	return func(dst []fr.Element, start int) error {
		copy(dst, scalars[start:start+len(dst)])
		return nil
	}
}

// straddleSizes returns the sizes around every MSMWindowSize threshold
// the oracle can afford plus msmMinChunk and msmSerialThreshold (512 and
// 1024: one point chunk → several, inline → scheduled).
func straddleSizes(limit int) []int {
	var sizes []int
	for _, th := range []int{8, 64, 256, msmMinChunk, msmSerialThreshold, 4096} {
		if th <= limit {
			sizes = append(sizes, th-1, th, th+1)
		}
	}
	return sizes
}

// TestMultiExpG1FoldedShapesMatchBitSerial pins every G1 driver — plain,
// pre-decomposed, streamed over resident scalars, and streamed with a
// scalar source — against the bit-serial oracle on every scalar shape,
// at sizes straddling each window-width and path threshold. It raises
// GOMAXPROCS so that the multi-worker cell layouts run wherever the
// machine has the cores.
func TestMultiExpG1FoldedShapesMatchBitSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	limit := 4096
	if testing.Short() {
		limit = 1024
	}
	rng := rand.New(rand.NewSource(60))
	for _, n := range straddleSizes(limit) {
		points := chainPointsG1(rng, n)
		for si, sh := range foldShapes() {
			if n > 1025 && si > 2 {
				continue // the 4096 bracket runs witness, full and one signed shape
			}
			scalars := sh.draw(rng, n)
			want := bitSerialMSMG1(points, scalars)
			check := func(driver string, got G1Jac, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", sh.name, n, driver, err)
				}
				if !got.Equal(&want) {
					t.Fatalf("%s n=%d: %s diverges from the bit-serial oracle", sh.name, n, driver)
				}
			}
			check("MultiExpG1", MultiExpG1(points, scalars), nil)
			// A chunk that is neither the whole MSM nor a divisor of it, and
			// the window width the streamed prover would pick for it.
			chunk := n/3 + 1
			c := StreamWindowSize(n, chunk)
			dec := DecomposeScalars(scalars, c)
			check("MultiExpG1Decomposed", MultiExpG1Decomposed(points, dec), nil)
			src := SliceSourceG1(points)
			got, err := MultiExpG1StreamScalars(src, scalars, c, chunk)
			check("MultiExpG1StreamScalars", got, err)
			got, err = MultiExpG1StreamScalarSource(src, scalarSliceSource(scalars), n, c, chunk)
			check("MultiExpG1StreamScalarSource", got, err)
		}
	}
}

// TestMultiExpG2FoldedShapesMatchBitSerial is the G2 counterpart, on the
// sizes and shapes the slower G2 oracle affords.
func TestMultiExpG2FoldedShapesMatchBitSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	limit := 1024
	if testing.Short() {
		limit = 512
	}
	rng := rand.New(rand.NewSource(61))
	for _, n := range straddleSizes(limit) {
		points := chainPointsG2(rng, n)
		for _, sh := range foldShapes()[:4] { // witness32, full, signed1, signed16
			scalars := sh.draw(rng, n)
			want := bitSerialMSMG2(points, scalars)
			check := func(driver string, got G2Jac, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", sh.name, n, driver, err)
				}
				if !got.Equal(&want) {
					t.Fatalf("%s n=%d: %s diverges from the bit-serial oracle", sh.name, n, driver)
				}
			}
			check("MultiExpG2", MultiExpG2(points, scalars), nil)
			chunk := n/3 + 1
			c := StreamWindowSize(n, chunk)
			dec := DecomposeScalars(scalars, c)
			check("MultiExpG2Decomposed", MultiExpG2Decomposed(points, dec), nil)
			src := SliceSourceG2(points)
			got, err := MultiExpG2StreamScalarSource(src, scalarSliceSource(scalars), n, c, chunk)
			check("MultiExpG2StreamScalarSource", got, err)
		}
	}
}

// TestMultiExpFoldedAllWindowWidths forces every window width over the
// sign-mixed shapes at a size where the batch-affine path and the
// multi-worker layouts run — the widths only the 2^14..2^22 size
// brackets select included, without an oracle run that large.
func TestMultiExpFoldedAllWindowWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(62))
	n := msmSerialThreshold + 300
	points := chainPointsG1(rng, n)
	for _, sh := range foldShapes() {
		scalars := sh.draw(rng, n)
		want := bitSerialMSMG1(points, scalars)
		for c := 2; c <= 15; c++ {
			got := MultiExpG1Decomposed(points, DecomposeScalars(scalars, c))
			if !got.Equal(&want) {
				t.Fatalf("%s: MSM mismatch at window width c=%d", sh.name, c)
			}
		}
	}
}

// TestMSMRunCarriesBucketsAcrossFeeds follows one run through three
// feeds: a repeated scalar whose hot bucket fills the conflict queue and
// collapses it, the same scalar again (which must accumulate into the
// same buckets, not fresh ones), then full-width scalars whose digits
// reach windows the run was not planned for (the plan grows to cover
// them). The sum is MultiExpG1's.
func TestMSMRunCarriesBucketsAcrossFeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	const chunk = 600
	points := chainPointsG1(rng, 3*chunk)
	scalars := fullScalars(rng, 3*chunk)
	for i := range scalars[:2*chunk] {
		scalars[i].SetUint64(5)
	}
	c := StreamWindowSize(len(points), chunk)
	var r *msmRun[G1Affine, G1Jac, *G1Jac, g1Msm]
	var sc *msmScratch[G1Affine, G1Jac]
	for f := 0; f < 3; f++ {
		dec := DecomposeScalars(scalars[f*chunk:(f+1)*chunk], c)
		if r == nil {
			r = newMSMRun[G1Affine, G1Jac](g1Msm{}, chunk, c, dec.used, obs.Scope{})
		}
		planned := r.used
		r.feed(points[f*chunk:(f+1)*chunk], dec, f == 2)
		switch f {
		case 0:
			if sc = r.cells[0].sc; sc == nil {
				t.Fatal("the first chunk left its cell without buckets")
			}
		case 1:
			if r.cells[0].sc != sc {
				t.Fatal("the second chunk accumulated into fresh buckets")
			}
		case 2:
			if r.used <= planned {
				t.Fatalf("full-width digits in %d windows, the run still covers %d", dec.used, r.used)
			}
		}
	}
	want := MultiExpG1(points, scalars)
	if got := r.sum(); !got.Equal(&want) {
		t.Fatal("three feeds of one run diverge from MultiExpG1")
	}
}

// TestDecomposeReusedStorageMatchesFresh pins the streamed drivers'
// buffer reuse: recoding a short-digit vector into storage that last
// held a full-width one must leave no stale digit behind.
func TestDecomposeReusedStorageMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const n, c = 300, 9
	full := make([]fr.Element, n)
	for i := range full {
		full[i] = randFr(rng)
	}
	reuse := decomposeScalarsInto(nil, full, c)
	small := witnessScalars(rng, n-40, 20)
	reuse = decomposeScalarsInto(reuse, small, c)
	fresh := DecomposeScalars(small, c)
	if reuse.used != fresh.used || reuse.n != fresh.n {
		t.Fatalf("reused decomposition: used %d n %d, fresh: used %d n %d", reuse.used, reuse.n, fresh.used, fresh.n)
	}
	for w := 0; w < fresh.windows; w++ {
		rr, fr2 := reuse.row(w), fresh.row(w)
		for i := range fr2 {
			if rr[i] != fr2[i] {
				t.Fatalf("window %d digit %d: reused storage holds %d, fresh %d", w, i, rr[i], fr2[i])
			}
		}
	}
}

// nonzeroDigits counts the bucket insertions the decomposition asks of
// an MSM: the deterministic measure of its accumulation work.
func nonzeroDigits(d *ScalarDecomposition) int {
	cnt := 0
	for w := 0; w < d.used; w++ {
		for _, digit := range d.row(w) {
			if digit != 0 {
				cnt++
			}
		}
	}
	return cnt
}

// TestFoldedRecodingWorkGate is the no-timing regression gate of sign
// folding: n signed values below 2^bits must cost at most
// ⌈(bits+1)/c⌉ insertions each and occupy at most that many windows
// plus one, whatever their sign — where unfolded recoding spent ~254/c
// of both on every negative value.
func TestFoldedRecodingWorkGate(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const n = 4096
	for _, bits := range []int{1, 16, 32, 64} {
		for _, draw := range []func(*rand.Rand, int, int) []fr.Element{signedScalars, witnessScalars} {
			scalars := draw(rng, n, bits)
			for _, c := range []int{2, 9, 11, 15} {
				perScalar := (bits + 1 + c - 1) / c
				dec := DecomposeScalars(scalars, c)
				if got := nonzeroDigits(dec); got > n*perScalar {
					t.Errorf("bits=%d c=%d: %d nonzero digits, want ≤ %d", bits, c, got, n*perScalar)
				}
				if dec.used > perScalar+1 {
					t.Errorf("bits=%d c=%d: %d windows used, want ≤ %d", bits, c, dec.used, perScalar+1)
				}
			}
		}
	}
}

// TestPlanMSMLayouts is the planner's table test. For every input the
// cells must tile the chunk × window grid exactly once with chunks that
// tile the points; every cell must span the windows whose buckets fill
// the smallest batch, unless it spans all of them; with several workers
// and a schedulable size the heaviest cell (points × windows) must leave
// room for balance, at most three quarters of one worker's even share;
// and one worker must get the single-chunk layout with the widest groups
// the bucket pool allows.
func TestPlanMSMLayouts(t *testing.T) {
	cases := []struct{ n, c, used, procs int }{
		{8192, 9, 30, 2},   // a streamed chunk, full-width scalars
		{32768, 11, 24, 2}, // the quotient query
		{33818, 11, 3, 2},  // a folded witness query
		{4129, 9, 3, 4},    // the verifier's IC multi-exp
		{300, 7, 37, 4},    // below msmSerialThreshold: inline
		{8192, 9, 29, 1},
		{33818, 11, 3, 1},
		{1 << 20, 14, 19, 8},
		{2000, 3, 86, 8}, // four buckets a window: groups stop at the smallest batch
		{600, 2, 20, 2},  // too few windows' worth of buckets for the smallest batch: one group
		{600, 2, 1, 2},   // one two-bucket window: one cell, whose batch is a single op
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n=%d c=%d used=%d procs=%d", tc.n, tc.c, tc.used, tc.procs)
		tasks, numChunks := planMSM(tc.n, tc.c, tc.used, tc.procs)
		minGroup := (msmMinBatch*msmBatchShare + 1<<(tc.c-1) - 1) >> (tc.c - 1)

		covered := make([]int, numChunks*tc.used)
		total, heaviest := 0, 0
		for _, task := range tasks {
			p0, p1 := chunkRange(task.chunk, numChunks, tc.n)
			if task.chunk < 0 || task.chunk >= numChunks || task.w0 < 0 || task.w1 > tc.used || task.w0 >= task.w1 || p0 >= p1 {
				t.Fatalf("%s: malformed cell %+v", name, task)
			}
			for w := task.w0; w < task.w1; w++ {
				covered[task.chunk*tc.used+w]++
			}
			if task.w1-task.w0 < minGroup && task.w1-task.w0 != tc.used {
				t.Fatalf("%s: cell %+v spans fewer than %d windows and not all %d", name, task, minGroup, tc.used)
			}
			weight := (p1 - p0) * (task.w1 - task.w0)
			total += weight
			heaviest = max(heaviest, weight)
		}
		for i, cnt := range covered {
			if cnt != 1 {
				t.Fatalf("%s: (chunk %d, window %d) covered %d times", name, i/tc.used, i%tc.used, cnt)
			}
		}
		next := 0
		for ch := 0; ch < numChunks; ch++ {
			p0, p1 := chunkRange(ch, numChunks, tc.n)
			if p0 != next {
				t.Fatalf("%s: chunk %d starts at %d, want %d", name, ch, p0, next)
			}
			next = p1
		}
		if next != tc.n {
			t.Fatalf("%s: chunks end at %d, want %d", name, next, tc.n)
		}

		if tc.procs > 1 && tc.n >= msmSerialThreshold {
			if limit := total * 3 / (4 * tc.procs); heaviest > limit {
				t.Errorf("%s: heaviest cell weighs %d of %d, want ≤ %d (0.75 × total/procs)", name, heaviest, total, limit)
			}
		}
		if tc.procs == 1 {
			if numChunks != 1 {
				t.Errorf("%s: one worker got %d chunks", name, numChunks)
			}
			maxGroup := msmGroupBuckets >> (tc.c - 1)
			if groups := (tc.used + maxGroup - 1) / maxGroup; len(tasks) != groups {
				t.Errorf("%s: one worker got %d cells, want %d", name, len(tasks), groups)
			}
		}
	}

	// Two named layouts on two workers: the quotient query splits 6/6/6/6
	// rather than 8/8/8, and a streamed chunk is cut by windows, never
	// left as one 29-window cell beside an idle worker.
	for _, tc := range []struct {
		name       string
		n, c, used int
		widths     string
	}{
		{"quotient query", 32768, 11, 24, "[6 6 6 6]"},
		{"streamed chunk", 8192, 9, 29, "[8 7 7 7]"},
	} {
		tasks, numChunks := planMSM(tc.n, tc.c, tc.used, 2)
		var widths []int
		for _, task := range tasks {
			widths = append(widths, task.w1-task.w0)
		}
		if fmt.Sprint(widths) != tc.widths || numChunks != 1 {
			t.Errorf("%s layout: group widths %v over %d chunks, want %s over 1", tc.name, widths, numChunks, tc.widths)
		}
	}
}
