package curve

import (
	"fmt"
	"io"
	"sync"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// Streamed (out-of-core) MSM: the scalar side of a multi-exponentiation
// is small (32 B/scalar) and stays in RAM, but the base points (64 B in
// G1, 128 B in G2, and there are three point queries per wire in a
// Groth16 proving key) dominate memory at paper scale. The streamed
// MSM consumes bases from a caller-supplied source in bounded chunks
// and feeds every chunk into one msmRun, planned once for the whole MSM:
//
//	total = reduce(Σ_chunks accumulate(points[chunk], digits[chunk]))
//
// Bucket accumulation is a sum, so feeding the chunks into one set of
// buckets is exact — the group element is identical to the one-shot
// MSM's, and streamed and in-memory Groth16 proofs are byte-identical
// after affine normalization — and the chunks pay for one bucket set, one
// reduction and one Horner fold between them rather than one each.
//
// Chunks are double-buffered: a prefetch goroutine reads and decodes
// chunk i+1 while the run accumulates chunk i, overlapping disk latency
// with compute. Peak point memory is 2·chunk points, independent of the
// MSM size; the buckets are the run's, bounded by streamMaxWindow.

// DefaultStreamChunk is the default number of points per streamed-MSM
// chunk: 8192 G1 points ≈ 512 KiB of decoded bases (1 MiB in G2).
// Sized by measurement at paper scale: halving from 16384 trims ~4 MB
// of peak prover RSS (two double-buffered windows plus the raw read
// buffer, G1 and G2). Every chunk feeds the same buckets, so the chunk
// size does not set the MSM's arithmetic — a smaller one costs only its
// per-chunk fixed work (a recode call, a dispatch of the run's cells and
// a drain of each cell's open batch) and less read/compute overlap.
const DefaultStreamChunk = 1 << 13

// streamMaxWindow caps a streamed MSM's window width. The run keeps one
// bucket set for the whole MSM — 2^(c-1) buckets in each of ⌈254/c⌉
// windows — and bounded memory is the point of streaming: at c = 12 that
// is 2048 × 22 affine buckets, ≈ 2.9 MB in G1 and 5.8 MB in G2, and each
// step above doubles it to save a few per cent of the additions.
const streamMaxWindow = 12

// streamChunkSize normalizes a caller-supplied chunk size the way the
// streamed driver does: non-positive selects the default, and a chunk
// larger than the MSM is clamped to it.
func streamChunkSize(n, chunk int) int {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	if chunk > n {
		chunk = n
	}
	return chunk
}

// G1Source fills dst with the MSM base points [start, start+len(dst)).
// Implementations need not be safe for concurrent calls — the streamed
// driver invokes the source serially from one prefetch goroutine.
type G1Source func(dst []G1Affine, start int) error

// G2Source is the G2 counterpart of G1Source.
type G2Source func(dst []G2Affine, start int) error

// ScalarSource fills dst with the MSM scalars [start, start+len(dst)) —
// the scalar-side analogue of G1Source, for MSMs whose scalars live
// out-of-core too (a spilled witness, the quotient file). Called
// serially by the streamed driver.
type ScalarSource func(dst []fr.Element, start int) error

// scalarView yields the scalars [start, end) of a streamed MSM. The
// slice is only read, and only until the next call.
type scalarView func(start, end int) ([]fr.Element, error)

// residentScalars views a slice in RAM: each chunk is a sub-slice, no
// copy.
func residentScalars(scalars []fr.Element) scalarView {
	return func(start, end int) ([]fr.Element, error) { return scalars[start:end], nil }
}

// sourcedScalars views a ScalarSource through buf, which must hold one
// chunk.
func sourcedScalars(src ScalarSource, buf []fr.Element) scalarView {
	return func(start, end int) ([]fr.Element, error) {
		s := buf[:end-start]
		if err := src(s, start); err != nil {
			return nil, fmt.Errorf("curve: streamed MSM scalar read at %d: %w", start, err)
		}
		return s, nil
	}
}

// multiExpStream is the one chunked MSM: it pulls bounded point
// chunks from src (prefetching one chunk ahead), recodes each chunk's
// scalars at window width c just before feeding it to the run, and takes
// the run's sum after the last. Recoding is per-scalar, so the digits —
// and the result, and any proof built from it — are those of a
// whole-vector decomposition; only one chunk of them is ever resident.
// The run is planned on the first chunk with a nonzero digit (an
// all-zero chunk adds nothing); a later chunk whose digits reach higher
// windows extends it (msmRun.cover).
//
// A failed read on either side ends the call at once: the error names
// the offset, the prefetch goroutine is told to stop, and the driver
// returns only after it has. A panic in src is a failed read too: it
// reaches the caller as a *par.Panic once the prefetcher has exited.
//
// sc, when on, records one span per chunk read (on its own lane — reads
// overlap compute), per scalar recode (a sourced chunk's scalar read
// included) and per chunk accumulation (the last one with the reduction)
// under its label — exposing whether a streamed prove is disk-bound or
// compute-bound. The run records no per-cell spans. The off path costs
// one nil check per span.
func multiExpStream[A, J any, P Jacobian[A, J], CV msmCurve[A, J]](cv CV, src func(dst []A, start int) error, n int, scalars scalarView, c, chunk int, sc obs.Scope) (J, error) {
	if n == 0 {
		return cv.infinity(), nil
	}
	chunk = streamChunkSize(n, chunk)
	read, recode, msm := sc.Sub("/read"), sc.Sub("/recode"), sc.Sub("/msm")
	readLane := sc.Trace().NextLane()

	type filled struct {
		buf        []A
		start, end int
		err        error
	}
	fills := make(chan filled)
	stop := make(chan struct{})
	free := make(chan []A, 2)
	pool := cv.chunkPool()
	bufs := [2]*[]A{getBuf[A](pool, chunk), getBuf[A](pool, chunk)}
	// par.Do below returns only once both goroutines have, so nothing
	// still holds a buffer when they go back — on a panic too.
	defer func() {
		pool.Put(bufs[0])
		pool.Put(bufs[1])
	}()
	free <- *bufs[0]
	free <- *bufs[1]
	prefetch := func() {
		defer close(fills)
		for start := 0; start < n; start += chunk {
			end := min(start+chunk, n)
			var buf []A
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			sp := read.SpanLane(readLane)
			err := src(buf[:end-start], start)
			sp.End()
			select {
			case fills <- filled{buf: buf, start: start, end: end, err: err}:
			case <-stop:
				return
			}
			if err != nil {
				return // consumer stops at the error; nothing more to send
			}
		}
	}
	var (
		run *msmRun[A, J, P, CV]
		err error
	)
	consume := func() {
		defer func() {
			close(stop)
			for range fills { // until the prefetcher closes it on its way out
			}
		}()
		// The driver consumes each chunk's digits before recoding the next,
		// so one pooled digit buffer serves every chunk.
		dec := getDecomposition()
		defer func() { putDecomposition(dec) }()
		for f := range fills {
			if f.err != nil {
				err = fmt.Errorf("curve: streamed MSM read at %d: %w", f.start, f.err)
				return
			}
			sp := recode.Span()
			var s []fr.Element
			if s, err = scalars(f.start, f.end); err == nil {
				dec = decomposeScalarsInto(dec, s, c)
			}
			sp.End()
			if err != nil {
				return
			}
			sp = msm.Span()
			points := f.buf[:f.end-f.start]
			if run == nil && dec.used > 0 {
				run = newMSMRun[A, J, P](cv, len(points), c, dec.used, obs.Scope{})
			}
			if run != nil {
				run.feed(points, dec, f.end == n)
			}
			sp.End()
			free <- f.buf
		}
	}
	// par.Do joins the two: a panic on the prefetcher (src decodes under
	// par.Range, which re-raises a worker's failure there) closes fills on
	// its way out, the consumer drains and returns, and the panic is
	// re-raised here, on the caller, as a *par.Panic carrying the
	// prefetcher's stack — failing this prove, not the process.
	par.Do(prefetch, consume)
	switch {
	case err != nil:
		if run != nil {
			run.drop()
		}
		return cv.infinity(), err
	case run == nil: // every scalar zero
		return cv.infinity(), nil
	}
	return run.sum(), nil
}

// getBuf takes a buffer of length n from pool (*[]T entries),
// allocating when the pool is empty or holds a smaller one.
func getBuf[T any](pool *sync.Pool, n int) *[]T {
	if p, ok := pool.Get().(*[]T); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]T, n)
	return &s
}

// decPool recycles per-chunk recode buffers across streamed MSMs: one
// proof runs five of them back to back (A, B1, B2, K, Z) and a
// long-lived prover runs many proofs, so without pooling every MSM
// call re-grows a digits table only to drop it. The pooled object's
// digit storage is reused by decomposeScalarsInto whenever it is large
// enough; digits are fully overwritten per chunk, so results are
// unchanged. The pool holds a handful of chunk-sized int16 tables
// (tens of KB each at DefaultStreamChunk) and the GC clears it under
// pressure.
var decPool sync.Pool

func getDecomposition() *ScalarDecomposition {
	if d, ok := decPool.Get().(*ScalarDecomposition); ok {
		return d
	}
	return &ScalarDecomposition{}
}

func putDecomposition(d *ScalarDecomposition) {
	if d != nil {
		decPool.Put(d)
	}
}

// scalarChunkPool recycles the scalar read buffers (*[]fr.Element) of
// the scalar-source MSMs the same way.
var scalarChunkPool sync.Pool

// MultiExpG1StreamScalars computes Σ kᵢ·Pᵢ where the points arrive from
// src in bounded chunks instead of living in RAM and the scalars are a
// resident slice. Pick the window width c with StreamWindowSize: every
// chunk feeds one set of buckets, reduced once, so the width that pays
// is the whole MSM's (capped so that set stays a few MB). The result
// equals MultiExpG1 on the same inputs.
func MultiExpG1StreamScalars(src G1Source, scalars []fr.Element, c, chunk int, sc ...obs.Scope) (G1Jac, error) {
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, len(scalars), residentScalars(scalars), c, chunk, obs.Opt(sc))
}

// MultiExpG1StreamScalarSource is MultiExpG1StreamScalars with the n
// scalars also arriving from a source instead of RAM: each chunk's
// scalars are loaded into a reused buffer and recoded just before the
// chunk is accumulated, so neither side of the MSM is ever fully
// resident.
func MultiExpG1StreamScalarSource(src G1Source, scalars ScalarSource, n, c, chunk int, sc ...obs.Scope) (G1Jac, error) {
	buf := getBuf[fr.Element](&scalarChunkPool, streamChunkSize(n, chunk))
	defer scalarChunkPool.Put(buf)
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, n, sourcedScalars(scalars, *buf), c, chunk, obs.Opt(sc))
}

// MultiExpG2StreamScalarSource is the G2 counterpart of
// MultiExpG1StreamScalarSource — the streamed key's B2 wire-query MSM.
// Points must have order r (see MultiExpG2) — a NewG2RawSource decodes
// with SetBytesRaw, which does not check it, so the bytes it reads must
// be key material this program wrote.
func MultiExpG2StreamScalarSource(src G2Source, scalars ScalarSource, n, c, chunk int, sc ...obs.Scope) (G2Jac, error) {
	buf := getBuf[fr.Element](&scalarChunkPool, streamChunkSize(n, chunk))
	defer scalarChunkPool.Put(buf)
	return multiExpStream[G2Affine, G2Jac](g2Msm{}, src, n, sourcedScalars(scalars, *buf), c, chunk, obs.Opt(sc))
}

// StreamWindowSize picks the Pippenger window width for a streamed MSM
// of n total points: MSMWindowSize(n), capped at streamMaxWindow. The
// chunk size does not enter — every chunk feeds the same buckets, so the
// width that balances inserts against bucket scans is the total's — and
// is taken only to keep the signature callers already use.
func StreamWindowSize(n, chunk int) int {
	return min(MSMWindowSize(n), streamMaxWindow)
}

// NewG1RawSource returns a G1Source decoding the contiguous run of
// uncompressed (BytesRaw) points that starts at byte offset off in r —
// the layout of one proving-key query section in the raw key encoding.
// Decoding parallelizes across the chunk; the byte buffer comes from a
// pool for the duration of each call.
func NewG1RawSource(r io.ReaderAt, off int64) G1Source {
	return rawSource(r, off, G1UncompressedSize, &g1RawPool, (*G1Affine).SetBytesRaw)
}

// NewG2RawSource is the G2 counterpart of NewG1RawSource (128-byte
// uncompressed points).
func NewG2RawSource(r io.ReaderAt, off int64) G2Source {
	return rawSource(r, off, G2UncompressedSize, &g2RawPool, (*G2Affine).SetBytesRaw)
}

// g1RawPool and g2RawPool recycle the raw sources' read buffers (*[]byte,
// one chunk of encoded points: 512 KiB in G1, 1 MiB in G2 at
// DefaultStreamChunk); one pool per width, so neither trades its buffers
// for the other's smaller ones.
var g1RawPool, g2RawPool sync.Pool

// rawSource reads size-byte encoded points from r at off and decodes
// them with set, in parallel, keeping the first error.
func rawSource[P any](r io.ReaderAt, off int64, size int, pool *sync.Pool, set func(p *P, b []byte) error) func(dst []P, start int) error {
	return func(dst []P, start int) error {
		bp := getBuf[byte](pool, len(dst)*size)
		defer pool.Put(bp)
		b := *bp
		if _, err := r.ReadAt(b, off+int64(start)*int64(size)); err != nil {
			return err
		}
		var mu sync.Mutex
		var firstErr error
		par.Range(len(dst), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := set(&dst[i], b[i*size:(i+1)*size]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		})
		return firstErr
	}
}
