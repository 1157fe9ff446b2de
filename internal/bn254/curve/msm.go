package curve

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// The multi-scalar multiplication Σ kᵢ·Pᵢ is the prover's dominant cost,
// so it gets the full production treatment:
//
//   - signed-digit recoding: window digits live in [-2^(c-1), 2^(c-1)]
//     instead of [0, 2^c), halving the bucket count per window (negative
//     digits add the negated point, a free transform in affine form);
//   - sign folding: a scalar above (r-1)/2 is recoded as r-s with every
//     digit negated, so a negative fixed-point witness value -x (stored
//     as r-x) costs the two or three low windows x does instead of all
//     ~254/c of them;
//   - batch-affine buckets: bucket inserts are affine additions whose
//     chord/tangent denominators are inverted together (Montgomery's
//     trick), ~6 field muls amortized against ~15 for a Jacobian mixed
//     add. On CPUs with AVX-512 IFMA, both groups' flushes run their
//     chord additions eight at a time on vector lanes (package lanes,
//     driven from g1_lanes.go and g2_lanes.go): the denominators
//     x₂ − x₁, their eight per-lane prefix chains, the backward pass
//     and λ, x₃, y₃, over F_p in G1 and F_p² in G2. The op classification, tangents, the chords
//     past the last block of eight and the flush's one inversion stay
//     scalar;
//   - two-dimensional parallelism: work is split into point-chunks ×
//     windows and scheduled on par.Each, so the MSM keeps scaling past
//     the ~20-window ceiling of window-only parallelism;
//   - a precomputed-digit API (DecomposeScalars + MultiExp*Decomposed)
//     so a caller multiplying one scalar vector against several bases —
//     the Groth16 prover's A/B1/B2 queries — recodes the scalars once.
//
// One generic core (msmRun / msmAccumulate) drives both groups, over
// resident points and streamed ones alike; G1 and G2 plug in only their
// leaf arithmetic (g1BatchAdder / g2BatchAdder and the Jacobian fold ops
// below).
//
// Below msmSmallThreshold points (48) none of that pays: Pippenger's
// per-window bucket reduction and fold cost the same for 2 points as for
// 40, and a verifier's IC over a weight digest and a claim bit is such an
// MSM. Those go through multiExpSmall instead — the same sign-folded
// digits at c = 4, a table of each point's multiples up to its largest
// digit (at most 8), and one accumulator whose doublings all points
// share. The one-point MSM is its n = 1.

// MSMWindowSize picks the Pippenger window width c for n points under
// signed-digit recoding (2^(c-1) buckets per window). The heuristic
// balances n inserts plus two bucket-scan additions per window against
// the ~254/c window count. Capped at 15 so digits fit int16.
func MSMWindowSize(n int) int {
	switch {
	case n < 8:
		return 3
	case n < 64:
		return 4
	case n < 256:
		return 5
	case n < 1024:
		return 7
	case n < 4096:
		return 8
	case n < 16384:
		return 9
	case n < 1<<16:
		return 11
	case n < 1<<18:
		return 12
	case n < 1<<20:
		return 13
	case n < 1<<22:
		return 14
	default:
		return 15
	}
}

// scalarWindow extracts the c-bit digit starting at bit offset from the
// little-endian limb representation.
func scalarWindow(limbs *[fr.Limbs]uint64, offset, c int) uint64 {
	limb := offset / 64
	shift := offset % 64
	if limb >= fr.Limbs {
		return 0
	}
	v := limbs[limb] >> shift
	if shift+c > 64 && limb+1 < fr.Limbs {
		v |= limbs[limb+1] << (64 - shift)
	}
	return v & ((1 << c) - 1)
}

// ScalarDecomposition holds the signed window digits of a scalar vector:
// the reusable half of an MSM. A decomposition computed once serves any
// number of MultiExp*Decomposed calls over bases of the same length — in
// either group, since digits depend only on the scalars.
type ScalarDecomposition struct {
	c       int
	windows int
	n       int
	// used counts the windows up to the highest nonzero digit. Real
	// witnesses are dominated by bit wires and small fixed-point values,
	// so their digits live in a handful of low windows — the MSM skips
	// the all-zero rest outright.
	used int
	// digits[w*n+i] is scalar i's signed digit for window w, in
	// [-2^(c-1), 2^(c-1)].
	digits []int16
}

// row returns the digit row of window w.
func (d *ScalarDecomposition) row(w int) []int16 {
	return d.digits[w*d.n : (w+1)*d.n]
}

// DecomposeScalars recodes scalars into signed c-bit window digits
// (2 ≤ c ≤ 15; use MSMWindowSize to pick c for a given size). Each
// window value v ∈ [0, 2^c] (window bits plus incoming carry) becomes
// v-2^c with a carry into the next window when v > 2^(c-1), so every
// digit needs only 2^(c-1) buckets. One extra top window absorbs the
// final carry; recoded magnitudes are < 2^253, so recoding always
// terminates with carry zero.
//
// The recoding is sign-folded: a scalar s whose canonical value exceeds
// (r-1)/2 is recoded as r-s with every digit negated, so the digit
// range is the symmetric [-2^(c-1), 2^(c-1)] (int16 still holds it at
// c = 15, and the bucket index |d|-1 stays below 2^(c-1)). The digits
// then represent s-r rather than s: Σ dᵢ·2^(c·i)·P equals s·P only for
// P of order r — every G1 point, and the precondition the MultiExpG2*
// entry points state.
func DecomposeScalars(scalars []fr.Element, c int) *ScalarDecomposition {
	return decomposeScalarsInto(nil, scalars, c)
}

// decomposeScalarsInto is DecomposeScalars reusing d's digit storage
// when it is large enough — the streamed MSM recodes thousands of
// chunks per proof, and a fresh digit table per chunk is pure GC churn.
// The digits written are identical to a fresh decomposition (recoding
// is per-scalar and every slot in the reused window rows is
// overwritten), so results are unchanged. Passing nil allocates.
func decomposeScalarsInto(d *ScalarDecomposition, scalars []fr.Element, c int) *ScalarDecomposition {
	d = resetDecomposition(d, len(scalars), c)
	var maxUsed atomic.Int64
	par.Range(len(scalars), func(start, end int) {
		localUsed := int64(d.recode(scalars, start, end))
		for {
			cur := maxUsed.Load()
			if localUsed <= cur || maxUsed.CompareAndSwap(cur, localUsed) {
				break
			}
		}
	})
	d.used = int(maxUsed.Load())
	return d
}

// resetDecomposition shapes d for n scalars at width c with every digit
// zero, reusing its storage when large enough. Each scalar then writes
// only the windows its magnitude reaches (plus one for the carry): the
// windows above — nearly all of them, for a witness — cost this one
// memclr instead of a strided store per scalar.
func resetDecomposition(d *ScalarDecomposition, n, c int) *ScalarDecomposition {
	if c < 2 || c > 15 {
		panic("curve: DecomposeScalars window width out of range [2,15]")
	}
	windows := (fr.Bits+c-1)/c + 1
	if d != nil && cap(d.digits) >= windows*n {
		d.digits = d.digits[:windows*n]
		clear(d.digits)
	} else {
		d = &ScalarDecomposition{digits: make([]int16, windows*n)}
	}
	d.c, d.windows, d.n = c, windows, n
	return d
}

// recode writes the digits of scalars[start:end] into zeroed rows and
// returns the number of windows up to their highest nonzero digit.
func (d *ScalarDecomposition) recode(scalars []fr.Element, start, end int) (used int) {
	c, n := d.c, d.n
	half := int64(1) << (c - 1)
	full := int64(1) << c
	for i := start; i < end; i++ {
		limbs, neg := scalars[i].SignedLimbs()
		bitLen := 0
		for l := fr.Limbs - 1; l >= 0; l-- {
			if limbs[l] != 0 {
				bitLen = 64*l + bits.Len64(limbs[l])
				break
			}
		}
		sign := int64(1)
		if neg {
			sign = -1
		}
		nw, carry := 0, int64(0)
		for ; nw*c < bitLen; nw++ {
			v := int64(scalarWindow(&limbs, nw*c, c)) + carry
			carry = 0
			if v > half {
				v -= full
				carry = 1
			}
			d.digits[nw*n+i] = int16(sign * v)
		}
		if carry != 0 {
			d.digits[nw*n+i] = int16(sign)
			nw++
		}
		// The top digit written is nonzero: the highest window holds the
		// magnitude's leading bit, and it recodes to zero only by
		// carrying out.
		used = max(used, nw)
	}
	return used
}

// msmBatchSize caps the number of independent bucket additions gathered
// before one shared inversion, amortizing it to ~1.5 field muls per add
// while keeping the op queue cache-resident.
const msmBatchSize = 512

// msmMinBatch is the smallest batch worth an inversion; below it (few
// buckets even after window grouping) the Jacobian path wins.
const msmMinBatch = 16

// msmBatchShare is the largest share of a cell's bucket pool one batch
// may fill: a batch near the bucket count makes conflicts the common
// case and starves the scheduler. At 1/4 about one op in eight meets
// its bucket already pending and waits one flush in the conflict queue —
// far cheaper than the inversion share a smaller batch pays, which is
// what lets the planner cut narrow window groups for balance.
const msmBatchShare = 4

// msmGroupBuckets is the largest combined bucket pool of a window
// group: more than this and the pool falls out of cache for no further
// gain in batch size.
const msmGroupBuckets = 8192

// msmOverflowCap is the conflict queue's capacity. The queue holds ops
// whose bucket is already in the pending batch; every flush drains it
// into the next batch, so it hovers near the per-batch conflict count
// and reaching the cap means repeated values, which spill.
const msmOverflowCap = 512

// msmMinChunk is the minimum number of points per chunk: below this the
// per-chunk bucket allocation and reduction dominate the inserts.
const msmMinChunk = 512

// msmSerialThreshold is the point count under which the whole MSM runs
// on the calling goroutine — parallel dispatch overhead is a measurable
// fraction of a millisecond-scale MSM.
const msmSerialThreshold = 1024

// msmAffineThreshold is the point count under which the batch-affine
// machinery can't amortize its flush inversions and plain Jacobian
// bucket accumulation wins.
const msmAffineThreshold = 512

// msmBatch is the batch size of a batch-affine cell owning pool buckets.
func msmBatch(pool int) int {
	return min(pool/msmBatchShare, msmBatchSize)
}

// batchOps is the leaf interface of the batch-affine accumulation,
// implemented by g1BatchAdder and g2BatchAdder.
type batchOps[A, J any] interface {
	isInfinity(p *A) bool
	negInto(dst, src *A)
	flush(buckets []A, idx []int32, pts []A)
	// addMixedJac folds one conflict-queue spill into a Jacobian side
	// bucket (p is already negated when the digit was negative).
	addMixedJac(dst *J, p *A)
}

// batchOp is one deferred bucket addition sitting in the conflict queue.
type batchOp[A any] struct {
	b  int32
	pt A
}

// msmAccumulate folds one chunk×window-group cell of points into the
// signed-digit buckets sc.bucketsA. sc.digitRows[g] holds the digits of
// the g-th window in the group, and that window owns the bucket segment
// [g·bucketsPerWindow, (g+1)·bucketsPerWindow): grouping narrow windows
// multiplies the bucket pool so batches stay large — one window of 256
// buckets can never amortize a 256-op batch, eight of them can.
//
// A flush requires distinct buckets (so its affine adds are
// independent); ops that would duplicate a pending bucket wait in an
// overflow queue and re-enter after the next flush, which keeps batches
// full — flushing on first conflict would cap them near √buckets by the
// birthday bound. Negative digits enqueue the negated point.
//
// Real witnesses repeat values (bit wires, shared constants), sending
// thousands of ops to one bucket; a queue alone would readmit one per
// flush and melt down quadratically. When the queue fills it is dumped
// into Jacobian side buckets instead — hot buckets degrade to exactly
// the plain-Jacobian cost while everything else stays batch-affine.
// side holds what earlier calls on the same buckets spilled (nil when
// none did); the returned side buckets add this call's spills, and the
// caller folds them into the reduction.
func msmAccumulate[A, J any, AD batchOps[A, J]](adder AD, sc *msmScratch[A, J], bucketsPerWindow int, points []A, side []J) []J {
	buckets, pending, idx, pts, digitRows := sc.bucketsA, sc.pending, sc.idx, sc.pts, sc.digitRows
	cnt := 0
	overflow := sc.overflow[:0]
	drainToSide := func() {
		if side == nil {
			side = make([]J, len(buckets)) // zero Jacobian value has Z = 0: infinity
		}
		for k := range overflow {
			adder.addMixedJac(&side[overflow[k].b], &overflow[k].pt)
		}
		overflow = overflow[:0]
	}
	flush := func() {
		adder.flush(buckets, idx[:cnt], pts[:cnt])
		for _, b := range idx[:cnt] {
			pending[b] = false
		}
		cnt = 0
		// Re-admit queued ops; first occurrence of each bucket always
		// enters the fresh batch, so the queue strictly shrinks.
		kept := overflow[:0]
		for k := range overflow {
			o := &overflow[k]
			if pending[o.b] || cnt == len(idx) {
				kept = append(kept, *o)
				continue
			}
			pts[cnt] = o.pt
			idx[cnt] = o.b
			pending[o.b] = true
			cnt++
		}
		overflow = kept
	}
	for i := range points {
		if adder.isInfinity(&points[i]) {
			continue
		}
		for g := range digitRows {
			d := digitRows[g][i]
			if d == 0 {
				continue
			}
			b := int32(d)
			neg := false
			if b < 0 {
				b = -b
				neg = true
			}
			b += int32(g*bucketsPerWindow) - 1
			if pending[b] {
				overflow = overflow[:len(overflow)+1]
				op := &overflow[len(overflow)-1]
				op.b = b
				if neg {
					adder.negInto(&op.pt, &points[i])
				} else {
					op.pt = points[i]
				}
				if len(overflow) == msmOverflowCap {
					drainToSide()
				}
				continue
			}
			if neg {
				adder.negInto(&pts[cnt], &points[i])
			} else {
				pts[cnt] = points[i]
			}
			idx[cnt] = b
			pending[b] = true
			cnt++
			if cnt == len(idx) {
				flush()
			}
		}
	}
	// Final drain: flush the open batch and the ops the queue re-admits,
	// for as long as a re-admission fills a batch worth its inversion.
	// What the queue still holds after a thin one is same-bucket
	// repetition with no more points to amortize against, so it spills to
	// the Jacobian side rather than trickling out one op per inversion;
	// the few ops of distinct scalars that met in the queue take one more
	// small flush instead, and cost no side bucket array. Every pending
	// flag is clear again afterwards, so the next call on these buckets
	// starts from a clean batch.
	for cnt > 0 {
		flush()
		if cnt < msmMinBatch && len(overflow) > 0 {
			drainToSide()
		}
	}
	return side
}

// msmCurve is the group-level interface of the shared Pippenger driver.
type msmCurve[A, J any] interface {
	// accumulator returns a closure over a fresh batch adder (whose
	// scratch persists across flushes and calls) running msmAccumulate
	// for this group.
	accumulator(batchSize int) func(sc *msmScratch[A, J], bucketsPerWindow int, points []A, side []J) []J
	// jacAccumulate folds digits into Jacobian buckets with mixed adds —
	// the small-MSM path, where batch-affine flushes can't amortize
	// their inversion.
	jacAccumulate(buckets []J, points []A, digits []int16)
	infinity() J
	// reduce sets sum = Σ_b (b+1)·buckets[b] with the usual running-sum
	// scan (affine buckets, so the inner add is mixed).
	reduce(buckets []A, sum *J)
	// jacReduce is reduce over Jacobian buckets.
	jacReduce(buckets []J, sum *J)
	add(dst, src *J)
	double(dst *J)
	// scratchPools recycles cell scratch (*msmScratch[A, J], one set of
	// pools per curve): a prover runs five MSMs per proof, and allocating
	// their bucket arrays afresh every time is the prover's dominant GC
	// churn.
	scratchPools() *scratchPools
	// chunkPool recycles the streamed MSM's point buffers (*[]A).
	chunkPool() *sync.Pool
	// The small pass (multiExpSmall) builds per-point tables of multiples
	// and walks the digits with mixed additions.
	fromAffine(p *A) J
	addMixed(dst *J, p *A)
	neg(dst, src *A)
	batchToAffine(points []J) []A
}

// msmScratch is the recycled working set of one cell, held from the
// cell's first points to its reduction. Buckets and the pending flags
// are re-zeroed when a cell takes it (the zero affine value is infinity,
// matching a fresh make); idx, pts, the conflict queue and the digit-row
// headers need no clearing — every reader stays inside the prefix its
// call wrote. The Jacobian side buckets of a spilling cell are not kept:
// they are as large as the bucket pool and 1.5× as wide, and a pool
// holding them live across GC cycles costs more resident memory than
// allocating them saves time.
type msmScratch[A, J any] struct {
	bucketsJ  []J
	bucketsA  []A
	pending   []bool
	idx       []int32
	pts       []A
	overflow  []batchOp[A]
	digitRows [][]int16
	// acc runs msmAccumulate on a batch adder sized for this scratch's
	// shape, whose own scratch comes back with it from the pool.
	acc func(sc *msmScratch[A, J], bucketsPerWindow int, points []A, side []J) []J
}

// scratchPools keeps one pool of cell scratch per shape — a cell's
// affine bucket count, or minus its Jacobian one — so that a cell reuses
// scratch sized for cells like it, and the pools do not end up holding
// every scratch grown to the largest cell's buckets (a streamed MSM holds
// all its cells' scratch at once, and the pools keep what it returns).
type scratchPools struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

func (p *scratchPools) pool(shape int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pools == nil {
		p.pools = make(map[int]*sync.Pool)
	}
	sp := p.pools[shape]
	if sp == nil {
		sp = new(sync.Pool)
		p.pools[shape] = sp
	}
	return sp
}

var g1ScratchPools, g2ScratchPools scratchPools

var g1ChunkPool, g2ChunkPool sync.Pool

// grow returns s[:n] with the backing array reallocated when too small,
// without zeroing retained contents — callers reset what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// msmTask is one cell of an MSM's work decomposition: point chunk
// chunk (of the plan's numChunks) crossed with the window run [w0, w1),
// accumulated batch-affine or Jacobian.
type msmTask struct {
	chunk  int
	w0, w1 int
	affine bool
}

// chunkRange returns the points [p0, p1) that chunk ch of numChunks
// covers among n: equal runs, the last one short.
func chunkRange(ch, numChunks, n int) (p0, p1 int) {
	chunkLen := (n + numChunks - 1) / numChunks
	p0 = min(ch*chunkLen, n)
	return p0, min(p0+chunkLen, n)
}

// planMSM lays an n-point MSM at window width c, whose digits occupy
// the low used windows, out into cells for procs workers; it returns the
// cells, heaviest first, and the number of point chunks (chunkRange).
// Every (chunk, window) pair belongs to exactly one cell.
//
// Windows 0..wide-1 draw digits from the scalar's full range and run
// batch-affine, grouped so one pass over the points owns several bucket
// segments at once: a single 256-bucket window can never keep a batch
// conflict-free, a run of them can. The windows above see only the
// scalar's high-order sliver of bits, so their digits crowd a handful
// of buckets; they take the Jacobian path one window per cell, as does
// everything in a small MSM, where flush inversions can't amortize.
//
// One worker gets the fewest groups msmGroupBuckets allows and a single
// chunk. More workers get ~2·procs batch-affine cells of near-equal
// weight, so that a worker that starts late or runs slow costs a
// fraction of a cell rather than a whole one: the wide windows are cut
// into more, narrower groups first (which adds no work — reduction cost
// follows the window count, not the grouping) and the points into
// chunks only when there are too few windows to go round (each extra
// chunk reduces every window's buckets once more). The sparse Jacobian
// cells above wide weigh next to nothing and are not counted: an
// 8192-point streamed chunk's 28 wide windows plus one top window is
// four cells of seven windows, not one of 28 and an idle worker.
func planMSM(n, c, used, procs int) (tasks []msmTask, numChunks int) {
	numBuckets := 1 << (c - 1)
	wide := min(fr.Bits/c, used)
	// A group spans between minGroup windows — the buckets the smallest
	// batch worth an inversion needs — and maxGroup.
	minGroup := (msmMinBatch*msmBatchShare + numBuckets - 1) / numBuckets
	maxGroup := (msmGroupBuckets + numBuckets - 1) / numBuckets
	if n < msmAffineThreshold || wide < minGroup {
		wide = 0
	}
	target := 1
	if procs > 1 && n >= msmSerialThreshold {
		target = 2 * procs
	}
	// cols counts the window runs that share the work: the batch-affine
	// groups, or every window when all of them are Jacobian.
	cols, groups := used, 0
	if wide > 0 {
		groups = max((wide+maxGroup-1)/maxGroup, min(target, wide/minGroup))
		cols = groups
	}
	numChunks = min((target+cols-1)/cols, (n+msmMinChunk-1)/msmMinChunk)

	cells := func(w0, w1 int, affine bool) {
		for ch := 0; ch < numChunks; ch++ {
			tasks = append(tasks, msmTask{chunk: ch, w0: w0, w1: w1, affine: affine})
		}
	}
	tasks = make([]msmTask, 0, numChunks*(groups+used-wide))
	// Balanced cut: the first wide%groups groups are one window wider.
	for g, w0 := 0, 0; g < groups; g++ {
		w1 := w0 + wide/groups
		if g < wide%groups {
			w1++
		}
		cells(w0, w1, true)
		w0 = w1
	}
	for w := wide; w < used; w++ {
		cells(w, w+1, false)
	}
	return tasks, numChunks
}

// msmRun is one multi-exponentiation from plan to sum: plan, then
// accumulate, then reduce. The plan is laid out once, when the run is
// made; each cell then owns its buckets — the affine ones and the
// Jacobian side buckets a hot bucket spills to — until the reduction, so
// the points may arrive in one feed (the in-memory entry) or a chunk at
// a time (multiExpStream), and the chunks pay for one set of
// buckets and one reduction between them, not one each. The final feed
// reduces every cell into a partial sum per (point chunk, window), and
// sum folds those once.
//
// A feed's point chunks are the plan's numChunks equal runs of the points
// it brings (chunkRange), so every feed keeps all cells busy; chunk ch of
// one feed and chunk ch of the next share the same buckets.
type msmRun[A, J any, CV msmCurve[A, J]] struct {
	cv         CV
	c          int
	numBuckets int
	numChunks  int
	// used counts the windows the cells cover: the plan's, extended when a
	// feed's digits reach higher (cover).
	used int
	// affine says a single window can run batch-affine in this run: the
	// feeds are large enough and a window's buckets fill the smallest batch.
	affine   bool
	cells    []msmCell[A, J]
	partials []J // numChunks × used window sums, written by the final feed

	// Per-cell spans of the in-memory entry, nil when untraced.
	lanes *obs.Lanes
	label string
}

// msmCell is one cell of a run with what it carries between feeds.
type msmCell[A, J any] struct {
	msmTask
	sc   *msmScratch[A, J] // taken at the cell's first points, returned by its reduction
	side []J               // Jacobian side buckets, nil until a batch-affine cell spills
}

// shape keys the cell's scratch pool (scratchPools).
func (t *msmTask) shape(numBuckets int) int {
	if !t.affine {
		return -numBuckets
	}
	return (t.w1 - t.w0) * numBuckets
}

// newMSMRun plans a run whose feeds bring at most n points at window
// width c, with digits in the low used windows (a streamed run plans for
// its first chunk with a nonzero digit). sc, when on, records one span
// per cell and feed on a pool of worker lanes — the per-window MSM
// attribution of the telemetry subsystem; the off path adds only a nil
// check per cell.
func newMSMRun[A, J any, CV msmCurve[A, J]](cv CV, n, c, used int, sc obs.Scope) *msmRun[A, J, CV] {
	tasks, numChunks := planMSM(n, c, used, par.Workers())
	r := &msmRun[A, J, CV]{cv: cv, c: c, numBuckets: 1 << (c - 1), numChunks: numChunks, used: used,
		affine: n >= msmAffineThreshold && msmBatch(1<<(c-1)) >= msmMinBatch,
		cells:  make([]msmCell[A, J], len(tasks), len(tasks)+numChunks)}
	for i, t := range tasks {
		r.cells[i].msmTask = t
	}
	if r.lanes = sc.Trace().Lanes(par.Workers()); r.lanes != nil {
		r.label = sc.Label()
	}
	return r
}

// cover extends the cells to the low used windows. A feed whose digits
// reach past the windows the plan was laid out for — a streamed chunk
// holding wider scalars than the chunk the run was planned on — gets one
// cell per point chunk for each new window: batch-affine where the
// planner would have made it so (a wide window in a run whose feeds can
// amortize a flush), Jacobian for the sparse top window.
func (r *msmRun[A, J, CV]) cover(used int) {
	for w := r.used; w < used; w++ {
		affine := r.affine && w < fr.Bits/r.c
		for ch := 0; ch < r.numChunks; ch++ {
			r.cells = append(r.cells, msmCell[A, J]{msmTask: msmTask{chunk: ch, w0: w, w1: w + 1, affine: affine}})
		}
	}
	r.used = max(r.used, used)
}

// feed accumulates points against their digits dec (one row per window,
// len(points) columns) into the cells' buckets. final marks the last
// feed, which reduces every cell as soon as it has accumulated — in the
// same task, so that a cell's reduction overlaps the other cells' work.
func (r *msmRun[A, J, CV]) feed(points []A, dec *ScalarDecomposition, final bool) {
	r.cover(dec.used)
	if final {
		r.partials = make([]J, r.numChunks*r.used) // zero value is Jacobian infinity
	}
	n := len(points)
	run := func(i int) {
		cell := &r.cells[i]
		p0, p1 := chunkRange(cell.chunk, r.numChunks, n)
		if cell.w0 < dec.used && p0 < p1 {
			if r.lanes != nil {
				sp := r.lanes.Span(r.label + "/w" + strconv.Itoa(cell.w0) + "-" + strconv.Itoa(cell.w1) +
					"/c" + strconv.Itoa(cell.chunk))
				defer sp.End()
			}
			r.accumulate(cell, points[p0:p1], dec, p0)
		}
		if final {
			r.reduce(cell)
		}
	}
	// Small feeds finish in milliseconds serially; goroutine dispatch
	// would cost a measurable slice of that, so they stay inline.
	if n < msmSerialThreshold {
		for i := range r.cells {
			run(i)
		}
	} else {
		par.Each(len(r.cells), run)
	}
}

// accumulate adds one feed's points [p0, p0+len(points)) of the cell's
// chunk into its buckets, taking the cell's scratch first if it has none.
func (r *msmRun[A, J, CV]) accumulate(cell *msmCell[A, J], points []A, dec *ScalarDecomposition, p0 int) {
	nb := r.numBuckets
	s := cell.sc
	if s == nil {
		s, _ = r.cv.scratchPools().pool(cell.shape(nb)).Get().(*msmScratch[A, J])
		if s == nil {
			s = &msmScratch[A, J]{}
		}
		cell.sc = s
		if !cell.affine {
			s.bucketsJ = grow(s.bucketsJ, nb)
			for b := range s.bucketsJ {
				s.bucketsJ[b] = r.cv.infinity()
			}
		} else {
			g := cell.w1 - cell.w0
			batch := msmBatch(g * nb)
			s.bucketsA = grow(s.bucketsA, g*nb)
			clear(s.bucketsA) // zero value is affine infinity
			s.pending = grow(s.pending, g*nb)
			clear(s.pending)
			s.idx = grow(s.idx, batch)
			s.pts = grow(s.pts, batch)
			s.overflow = grow(s.overflow, msmOverflowCap)
			s.digitRows = grow(s.digitRows, g)
			if s.acc == nil {
				s.acc = r.cv.accumulator(batch)
			}
		}
	}
	if !cell.affine {
		r.cv.jacAccumulate(s.bucketsJ, points, dec.row(cell.w0)[p0:p0+len(points)])
		return
	}
	for j := range s.digitRows {
		s.digitRows[j] = dec.row(cell.w0 + j)[p0 : p0+len(points)]
	}
	cell.side = s.acc(s, nb, points, cell.side)
	clear(s.digitRows) // a pooled scratch must not pin the digit table
}

// reduce writes the cell's window sums into the partials and returns
// its scratch. A cell that never took points leaves its partials at
// infinity.
func (r *msmRun[A, J, CV]) reduce(cell *msmCell[A, J]) {
	s := cell.sc
	if s == nil {
		return
	}
	nb := r.numBuckets
	// Sums accumulate in locals and land in partials once: neighbouring
	// partials belong to other workers' cells, and a running sum
	// rewritten per bucket would bounce their shared cache lines.
	if !cell.affine {
		var sum J
		r.cv.jacReduce(s.bucketsJ, &sum)
		r.partials[cell.chunk*r.used+cell.w0] = sum
	} else {
		for j := 0; j < cell.w1-cell.w0; j++ {
			var sum, spill J
			r.cv.reduce(s.bucketsA[j*nb:(j+1)*nb], &sum)
			if cell.side != nil {
				r.cv.jacReduce(cell.side[j*nb:(j+1)*nb], &spill)
				r.cv.add(&sum, &spill)
			}
			r.partials[cell.chunk*r.used+cell.w0+j] = sum
		}
	}
	r.release(cell)
}

// release returns the cell's scratch to the pool after its reduction.
func (r *msmRun[A, J, CV]) release(cell *msmCell[A, J]) {
	if cell.sc != nil {
		r.cv.scratchPools().pool(cell.shape(r.numBuckets)).Put(cell.sc)
		cell.sc, cell.side = nil, nil
	}
}

// drop releases every cell of a run abandoned before its final feed.
func (r *msmRun[A, J, CV]) drop() {
	for i := range r.cells {
		r.release(&r.cells[i])
	}
}

// sum is the Horner fold over the final feed's partials, most
// significant window first; within a window, chunk partials just add.
// All-zero top windows (small witness values) have no cells, so the fold
// never doubles past the highest nonzero digit.
func (r *msmRun[A, J, CV]) sum() J {
	res := r.cv.infinity()
	for w := r.used - 1; w >= 0; w-- {
		if w != r.used-1 {
			for i := 0; i < r.c; i++ {
				r.cv.double(&res)
			}
		}
		for ch := 0; ch < r.numChunks; ch++ {
			r.cv.add(&res, &r.partials[ch*r.used+w])
		}
	}
	return res
}

// multiExp is the in-memory Pippenger MSM: one run, one feed of every
// point, one fold — the streamed MSM's arithmetic with a single chunk.
func multiExp[A, J any, CV msmCurve[A, J]](cv CV, points []A, dec *ScalarDecomposition, sc obs.Scope) J {
	n := len(points)
	if n == 0 || dec.used == 0 {
		return cv.infinity()
	}
	if n != dec.n {
		panic("curve: MultiExp decomposition length mismatch")
	}
	r := newMSMRun[A, J](cv, n, dec.c, dec.used, sc)
	r.feed(points, dec, true)
	return r.sum()
}

// g1Msm and g2Msm bind the generic driver to the concrete groups.
type g1Msm struct{}

func (g1Msm) accumulator(batchSize int) func(*msmScratch[G1Affine, G1Jac], int, []G1Affine, []G1Jac) []G1Jac {
	adder := newG1BatchAdder(batchSize)
	return func(sc *msmScratch[G1Affine, G1Jac], bucketsPerWindow int, points []G1Affine, side []G1Jac) []G1Jac {
		return msmAccumulate[G1Affine, G1Jac](adder, sc, bucketsPerWindow, points, side)
	}
}

func (g1Msm) jacAccumulate(buckets []G1Jac, points []G1Affine, digits []int16) {
	for i := range digits {
		d := digits[i]
		if d == 0 {
			continue
		}
		if d > 0 {
			buckets[d-1].AddMixed(&points[i])
		} else {
			var neg G1Affine
			neg.Neg(&points[i])
			buckets[-d-1].AddMixed(&neg)
		}
	}
}

func (g1Msm) infinity() G1Jac {
	var j G1Jac
	j.SetInfinity()
	return j
}

func (g1Msm) reduce(buckets []G1Affine, sum *G1Jac) {
	var acc G1Jac
	acc.SetInfinity()
	sum.SetInfinity()
	for b := len(buckets) - 1; b >= 0; b-- {
		acc.AddMixed(&buckets[b])
		sum.AddAssign(&acc)
	}
}

func (g1Msm) jacReduce(buckets []G1Jac, sum *G1Jac) {
	var acc G1Jac
	acc.SetInfinity()
	sum.SetInfinity()
	for b := len(buckets) - 1; b >= 0; b-- {
		acc.AddAssign(&buckets[b])
		sum.AddAssign(&acc)
	}
}

func (g1Msm) add(dst, src *G1Jac) { dst.AddAssign(src) }
func (g1Msm) double(dst *G1Jac)   { dst.DoubleAssign() }

func (g1Msm) scratchPools() *scratchPools { return &g1ScratchPools }
func (g1Msm) chunkPool() *sync.Pool       { return &g1ChunkPool }

func (g1Msm) fromAffine(p *G1Affine) (j G1Jac)        { j.FromAffine(p); return j }
func (g1Msm) addMixed(dst *G1Jac, p *G1Affine)        { dst.AddMixed(p) }
func (g1Msm) neg(dst, src *G1Affine)                  { dst.Neg(src) }
func (g1Msm) batchToAffine(points []G1Jac) []G1Affine { return BatchJacToAffineG1(points) }

type g2Msm struct{}

func (g2Msm) accumulator(batchSize int) func(*msmScratch[G2Affine, G2Jac], int, []G2Affine, []G2Jac) []G2Jac {
	adder := newG2BatchAdder(batchSize)
	return func(sc *msmScratch[G2Affine, G2Jac], bucketsPerWindow int, points []G2Affine, side []G2Jac) []G2Jac {
		return msmAccumulate[G2Affine, G2Jac](adder, sc, bucketsPerWindow, points, side)
	}
}

func (g2Msm) jacAccumulate(buckets []G2Jac, points []G2Affine, digits []int16) {
	for i := range digits {
		d := digits[i]
		if d == 0 {
			continue
		}
		if d > 0 {
			buckets[d-1].AddMixed(&points[i])
		} else {
			var neg G2Affine
			neg.Neg(&points[i])
			buckets[-d-1].AddMixed(&neg)
		}
	}
}

func (g2Msm) infinity() G2Jac {
	var j G2Jac
	j.SetInfinity()
	return j
}

func (g2Msm) reduce(buckets []G2Affine, sum *G2Jac) {
	var acc G2Jac
	acc.SetInfinity()
	sum.SetInfinity()
	for b := len(buckets) - 1; b >= 0; b-- {
		acc.AddMixed(&buckets[b])
		sum.AddAssign(&acc)
	}
}

func (g2Msm) jacReduce(buckets []G2Jac, sum *G2Jac) {
	var acc G2Jac
	acc.SetInfinity()
	sum.SetInfinity()
	for b := len(buckets) - 1; b >= 0; b-- {
		acc.AddAssign(&buckets[b])
		sum.AddAssign(&acc)
	}
}

func (g2Msm) add(dst, src *G2Jac) { dst.AddAssign(src) }
func (g2Msm) double(dst *G2Jac)   { dst.DoubleAssign() }

func (g2Msm) scratchPools() *scratchPools { return &g2ScratchPools }
func (g2Msm) chunkPool() *sync.Pool       { return &g2ChunkPool }

func (g2Msm) fromAffine(p *G2Affine) (j G2Jac)        { j.FromAffine(p); return j }
func (g2Msm) addMixed(dst *G2Jac, p *G2Affine)        { dst.AddMixed(p) }
func (g2Msm) neg(dst, src *G2Affine)                  { dst.Neg(src) }
func (g2Msm) batchToAffine(points []G2Jac) []G2Affine { return BatchJacToAffineG2(points) }

// multiExpEntry is the door of every MSM over resident points — either
// group, traced or not. It and the streamed MSM (multiExpStream, which
// feeds the points a chunk at a time) run the same msmRun, so every MSM
// of the package runs the same code and a GPU or NEON backend has one
// place to plug in. The digits come pre-recoded in dec, or, when dec is
// nil, from scalars, recoded here at the width MSMWindowSize picks for
// the point count.
//
// sc, when on, records the whole call (recoding included) as one span
// under its label, with the run's per-cell spans beneath it.
func multiExpEntry[A, J any, CV msmCurve[A, J]](cv CV, points []A, scalars []fr.Element, dec *ScalarDecomposition, sc obs.Scope) J {
	sp := sc.Span()
	defer sp.End()
	if dec == nil {
		n := len(points)
		if len(scalars) != n {
			panic("curve: MultiExp length mismatch")
		}
		if n < msmSmallThreshold {
			return multiExpSmall[A, J](cv, points, scalars)
		}
		dec = DecomposeScalars(scalars, MSMWindowSize(n))
	}
	return multiExp[A, J](cv, points, dec, sc)
}

// msmSmallThreshold is the point count below which an MSM over resident
// scalars skips Pippenger for multiExpSmall. Pippenger pays per window
// for a bucket reduction and a fold, ~254/c windows whatever n is; a
// verifier's few-input IC (a weight digest and a claim bit) would spend
// more on that than on one scalar multiplication. The crossing point is
// BenchmarkMSM's Small/Pippenger pairs (full-width scalars, 2 vCPUs):
// the small pass takes a third to a half off at 2 to 16 points and
// still leads by 10–15 % at 48, while at 64 the two tie in G1 and
// Pippenger leads by a sixth in G2.
const msmSmallThreshold = 48

// msmSmallWindow is the small pass's digit width: a table of 2^(c-1)
// multiples per point against ~254/c additions per full-width scalar.
const msmSmallWindow = 4

// multiExpSmall computes Σ kᵢ·Pᵢ in one joint signed-window pass: the
// scalars take the sign-folded c-bit digits of DecomposeScalars; every
// point gets a table of its multiples 2..2^(c-1), built in Jacobian form
// only as far as its largest digit and brought to affine with one shared
// inversion (the multiple 1 is the point itself); then one accumulator
// runs from the top window down, c doublings per window shared by all
// points and one mixed addition per nonzero digit (of the negated entry
// for a negative digit). Like the Pippenger path, the folded digits need
// points of order r. Infinity points, zero scalars and repeated points
// need no case of their own: the mixed addition handles ∞ and P + P.
func multiExpSmall[A, J any, CV msmCurve[A, J]](cv CV, points []A, scalars []fr.Element) J {
	n := len(points)
	dec := resetDecomposition(nil, n, msmSmallWindow)
	dec.used = dec.recode(scalars, 0, n)
	res := cv.infinity()
	if dec.used == 0 {
		return res
	}
	// Point i's multiples 2..top, top its largest digit magnitude, are
	// tbl[start[i]:start[i+1]]: a claim bit needs no table at all.
	start := make([]int, n+1)
	for i := range n {
		top := int16(1)
		for w := 0; w < dec.used; w++ {
			top = max(top, dec.digits[w*n+i], -dec.digits[w*n+i])
		}
		start[i+1] = start[i] + int(top) - 1
	}
	jac := make([]J, start[n])
	for i := range points {
		row := jac[start[i]:start[i+1]]
		for m := range row {
			if m == 0 {
				row[0] = cv.fromAffine(&points[i])
				cv.double(&row[0])
			} else {
				row[m] = row[m-1]
				cv.addMixed(&row[m], &points[i])
			}
		}
	}
	tbl := cv.batchToAffine(jac)
	multiple := func(i int, d int16) *A {
		if d == 1 {
			return &points[i]
		}
		return &tbl[start[i]+int(d)-2]
	}
	var neg A
	for w := dec.used - 1; w >= 0; w-- {
		if w != dec.used-1 {
			for range msmSmallWindow {
				cv.double(&res)
			}
		}
		for i, d := range dec.row(w) {
			switch {
			case d > 0:
				cv.addMixed(&res, multiple(i, d))
			case d < 0:
				cv.neg(&neg, multiple(i, -d))
				cv.addMixed(&res, &neg)
			}
		}
	}
	return res
}

// The exported multi-exponentiations are eight names: G1 and G2 of
// MultiExp (resident points and scalars), MultiExp…Decomposed (digits
// recoded once, shared across bases), MultiExp…StreamScalars (points
// from a source, resident scalars) and MultiExp…StreamScalarSource
// (both from sources); the streamed four are in stream.go. Each takes a
// trailing optional obs.Scope: pass tr.Scope("msm/A") to have the call
// recorded under that label, nothing to run untraced.

// MultiExpG1 computes Σ scalars[i]·points[i] with the parallel
// signed-digit Pippenger method. Points and scalars must have equal
// length; zero scalars and infinity points are skipped naturally.
func MultiExpG1(points []G1Affine, scalars []fr.Element, sc ...obs.Scope) G1Jac {
	return multiExpEntry[G1Affine, G1Jac](g1Msm{}, points, scalars, nil, obs.Opt(sc))
}

// MultiExpG1Decomposed computes the G1 MSM against pre-recoded scalar
// digits, letting callers amortize DecomposeScalars across several bases
// (the Groth16 prover reuses one witness decomposition for the A, B1,
// and B2 queries).
func MultiExpG1Decomposed(points []G1Affine, dec *ScalarDecomposition, sc ...obs.Scope) G1Jac {
	return multiExpEntry[G1Affine, G1Jac](g1Msm{}, points, nil, dec, obs.Opt(sc))
}

// MultiExpG2 computes Σ scalars[i]·points[i] over G2.
//
// Every point must have order r. The sign-folded recoding computes a
// scalar s above (r-1)/2 as (r-s)·(-P), which equals s·P only when
// r·P = 0; G1 has cofactor 1, so there it always holds, but the G2
// twist has points outside the order-r subgroup. Setup and SRS
// generation produce subgroup points and the compressed SetBytes checks
// membership; SetBytesRaw checks the curve equation only, so raw-key
// material must come from a trusted writer (the engine's CRC-framed
// cache of its own keys). The same holds for MultiExpG2Decomposed and
// the MultiExpG2Stream* drivers.
func MultiExpG2(points []G2Affine, scalars []fr.Element, sc ...obs.Scope) G2Jac {
	return multiExpEntry[G2Affine, G2Jac](g2Msm{}, points, scalars, nil, obs.Opt(sc))
}

// MultiExpG2Decomposed computes the G2 MSM against pre-recoded scalar
// digits (see MultiExpG1Decomposed). Points must have order r (see
// MultiExpG2).
func MultiExpG2Decomposed(points []G2Affine, dec *ScalarDecomposition, sc ...obs.Scope) G2Jac {
	return multiExpEntry[G2Affine, G2Jac](g2Msm{}, points, nil, dec, obs.Opt(sc))
}

// Fixed-base multiplication — k·base for a whole vector of scalars, the
// cost of a trusted setup — reuses the MSM's parts with the roles
// swapped: the scalars are recoded into the same signed, sign-folded
// digits, a table holds every digit's multiple of the base per window,
// and the accumulators (one per scalar, not one per digit value) take
// their table entries through the batch-affine flush.

// fixedBaseWindow is the one digit width of every table. Width 11 gives
// 24 windows of 1024 entries: a 1.6 MB (G1) / 3.1 MB (G2) table built
// in ~25k additions, and at most 24 per scalar after it. A width chosen
// per call would need a table per width; the setup's vectors are all
// tens of thousands of scalars and this width serves them within a few
// per cent of their best.
const fixedBaseWindow = 11

// fixedBaseWindows counts the windows a recoded scalar can reach: the
// folded magnitude is below 2^(fr.Bits-1), and one more window takes
// the final carry.
const fixedBaseWindows = (fr.Bits-1+fixedBaseWindow-1)/fixedBaseWindow + 1

// fixedBaseEntries is the table's per-window entry count, one per digit
// magnitude.
const fixedBaseEntries = 1 << (fixedBaseWindow - 1)

// fixedBaseBlock is the number of accumulators one worker carries
// through the windows: enough to share each window's inversion a
// thousand ways, few enough that the block's digits, gathered entries
// and denominators stay cache-resident beside a window's table row.
const fixedBaseBlock = 1024

// fixedBaseCurve is what the fixed-base kernel needs of a group.
type fixedBaseCurve[A, J any] interface {
	batchAdder(batchSize int) batchOps[A, J]
	double(dst *J)
	batchToAffine(points []J) []A
}

func (g1Msm) batchAdder(batchSize int) batchOps[G1Affine, G1Jac] { return newG1BatchAdder(batchSize) }
func (g2Msm) batchAdder(batchSize int) batchOps[G2Affine, G2Jac] { return newG2BatchAdder(batchSize) }

// fixedBaseTable holds entries[w·fixedBaseEntries + d-1] = d·2^(cw)·base.
// It is built per setup and dies with it.
type fixedBaseTable[A, J any, CV fixedBaseCurve[A, J]] struct {
	cv      CV
	entries []A
}

// G1FixedBaseTable precomputes multiples of a single base point so that
// many scalar multiplications of that base (the dominant cost of Groth16
// trusted setup) collapse to at most 24 amortised affine additions each.
type G1FixedBaseTable = fixedBaseTable[G1Affine, G1Jac, g1Msm]

// G2FixedBaseTable is the G2 counterpart of G1FixedBaseTable.
type G2FixedBaseTable = fixedBaseTable[G2Affine, G2Jac, g2Msm]

// NewG1FixedBaseTable builds the table for the given base.
func NewG1FixedBaseTable(base *G1Jac) *G1FixedBaseTable {
	return newFixedBaseTable[G1Affine, G1Jac](g1Msm{}, *base)
}

// NewG2FixedBaseTable builds the table for the given base, which must
// have order r: the sign-folded digits compute a scalar above (r-1)/2 as
// its negative (see MultiExpG2).
func NewG2FixedBaseTable(base *G2Jac) *G2FixedBaseTable {
	return newFixedBaseTable[G2Affine, G2Jac](g2Msm{}, *base)
}

// newFixedBaseTable fills the table, windows in parallel. A window's row
// doubles in length level by level — (have+j+1)·P = have·P + (j+1)·P for
// every j below have — so each level is one flush whose last slot is the
// tangent case.
func newFixedBaseTable[A, J any, CV fixedBaseCurve[A, J]](cv CV, base J) *fixedBaseTable[A, J, CV] {
	firsts := make([]J, fixedBaseWindows)
	for w := range firsts {
		firsts[w] = base
		for range fixedBaseWindow {
			cv.double(&base)
		}
	}
	first := cv.batchToAffine(firsts)
	entries := make([]A, fixedBaseWindows*fixedBaseEntries)
	idx := make([]int32, fixedBaseEntries/2)
	for i := range idx {
		idx[i] = int32(i)
	}
	par.Each(fixedBaseWindows, func(w int) {
		row := entries[w*fixedBaseEntries : (w+1)*fixedBaseEntries]
		adder := cv.batchAdder(fixedBaseEntries / 2)
		row[0] = first[w]
		for have := 1; have < fixedBaseEntries; have *= 2 {
			next := row[have : 2*have]
			for j := range next {
				next[j] = row[have-1]
			}
			adder.flush(next, idx[:have], row[:have])
		}
	})
	return &fixedBaseTable[A, J, CV]{cv, entries}
}

// MulBatch returns k·base in affine form for every k in ks. The scalars
// are cut into blocks that the workers draw one at a time, so a stretch
// of zero scalars costs its worker nothing and the others pick up the
// slack. Within a block every accumulator starts at infinity and
// receives, per window, its digit's table entry (negated for a negative
// digit) in one flush: the accumulators are distinct by construction, so
// there is nothing to queue and nothing leaves affine form. A worker's
// digits, gathered entries and denominators are allocated once and
// serve every block it draws.
func (t *fixedBaseTable[A, J, CV]) MulBatch(ks []fr.Element) []A {
	out := make([]A, len(ks))             // zero value is affine infinity
	block := min(len(ks), fixedBaseBlock) // the key's lone elements come three at a time
	blocks := (len(ks) + fixedBaseBlock - 1) / fixedBaseBlock
	var drawn atomic.Int64
	par.Each(min(blocks, par.Workers()), func(int) {
		var dec *ScalarDecomposition
		idx, pts := make([]int32, block), make([]A, block)
		adder := t.cv.batchAdder(block)
		for b := int(drawn.Add(1)) - 1; b < blocks; b = int(drawn.Add(1)) - 1 {
			lo := b * fixedBaseBlock
			acc := out[lo:min(lo+fixedBaseBlock, len(ks))]
			// Recoded here, not through decomposeScalarsInto, which would fan
			// out again underneath this worker.
			dec = resetDecomposition(dec, len(acc), fixedBaseWindow)
			dec.used = dec.recode(ks[lo:lo+len(acc)], 0, len(acc))
			for w := 0; w < dec.used; w++ {
				row := t.entries[w*fixedBaseEntries : (w+1)*fixedBaseEntries]
				cnt := 0
				for i, d := range dec.row(w) {
					switch {
					case d > 0:
						pts[cnt] = row[d-1]
					case d < 0:
						adder.negInto(&pts[cnt], &row[-d-1])
					default:
						continue
					}
					idx[cnt] = int32(i)
					cnt++
				}
				adder.flush(acc, idx[:cnt], pts[:cnt])
			}
		}
	})
	return out
}
