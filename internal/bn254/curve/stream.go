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
// driver consumes bases from a caller-supplied source in bounded chunks:
//
//	total = Σ_chunks Pippenger(points[chunk], digits[chunk])
//
// MSM linearity makes the chunk decomposition exact — the group element
// is identical to the one-shot MSM, so streamed and in-memory Groth16
// proofs are byte-identical after affine normalization.
//
// Chunks are double-buffered: a prefetch goroutine reads and decodes
// chunk i+1 while the Pippenger core runs on chunk i, overlapping disk
// latency with compute. Peak point memory is 2·chunk points plus one
// chunk's bucket pool, independent of the MSM size.

// DefaultStreamChunk is the default number of points per streamed-MSM
// chunk: 8192 G1 points ≈ 512 KiB of decoded bases (1 MiB in G2).
// Sized by measurement at paper scale: halving from 16384 trims ~4 MB
// of peak prover RSS (two double-buffered windows plus the raw read
// buffer, G1 and G2) for no measurable prove-time cost, while halving
// again costs ~25% prove time for under 1 MB — the bucket reduction
// stops amortizing.
const DefaultStreamChunk = 1 << 13

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

// multiExpStream is the one chunked MSM driver: it pulls bounded point
// chunks from src (prefetching one chunk ahead), recodes each chunk's
// scalars at window width c just before its Pippenger pass, and folds
// the per-chunk partial sums. Recoding is per-scalar, so the digits —
// and the result, and any proof built from it — are those of a
// whole-vector decomposition; only one chunk of them is ever resident.
//
// A failed read on either side ends the call at once: the error names
// the offset, the prefetch goroutine is told to stop, and the driver
// returns only after it has. A panic in src is a failed read too: it
// reaches the caller as a *par.Panic once the prefetcher has exited.
//
// sc, when on, records one span per chunk read (on its own lane — reads
// overlap compute), per scalar recode (a sourced chunk's scalar read
// included) and per chunk MSM under its label — exposing whether a
// streamed prove is disk-bound or compute-bound. The chunk MSMs record
// no per-task spans. The off path costs one nil check per span.
func multiExpStream[A, J any, CV msmCurve[A, J]](cv CV, src func(dst []A, start int) error, n int, scalars scalarView, c, chunk int, sc obs.Scope) (J, error) {
	sum := cv.infinity()
	if n == 0 {
		return sum, nil
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
	free <- make([]A, chunk)
	free <- make([]A, chunk)
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
	var err error
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
			part := multiExpEntry[A, J](cv, f.buf[:f.end-f.start], nil, dec, obs.Scope{})
			sp.End()
			free <- f.buf
			cv.add(&sum, &part)
		}
	}
	// par.Do joins the two: a panic on the prefetcher (src decodes under
	// par.Range, which re-raises a worker's failure there) closes fills on
	// its way out, the consumer drains and returns, and the panic is
	// re-raised here, on the caller, as a *par.Panic carrying the
	// prefetcher's stack — failing this prove, not the process.
	par.Do(prefetch, consume)
	return sum, err
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

// scalarChunkPool recycles the scalar read buffers of the
// scalar-source MSMs the same way.
var scalarChunkPool sync.Pool

func getScalarChunk(n int) []fr.Element {
	if p, ok := scalarChunkPool.Get().(*[]fr.Element); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]fr.Element, n)
}

func putScalarChunk(s []fr.Element) {
	scalarChunkPool.Put(&s)
}

// MultiExpG1StreamScalars computes Σ kᵢ·Pᵢ where the points arrive from
// src in bounded chunks instead of living in RAM and the scalars are a
// resident slice. Pick the window width c for the chunk size, not the
// total size (StreamWindowSize) — each chunk runs its own Pippenger
// pass. The result equals MultiExpG1 on the same inputs.
func MultiExpG1StreamScalars(src G1Source, scalars []fr.Element, c, chunk int, sc ...obs.Scope) (G1Jac, error) {
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, len(scalars), residentScalars(scalars), c, chunk, obs.Opt(sc))
}

// MultiExpG1StreamScalarSource is MultiExpG1StreamScalars with the n
// scalars also arriving from a source instead of RAM: each chunk's
// scalars are loaded into a reused buffer and recoded just before its
// Pippenger pass, so neither side of the MSM is ever fully resident.
func MultiExpG1StreamScalarSource(src G1Source, scalars ScalarSource, n, c, chunk int, sc ...obs.Scope) (G1Jac, error) {
	buf := getScalarChunk(streamChunkSize(n, chunk))
	defer putScalarChunk(buf)
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, n, sourcedScalars(scalars, buf), c, chunk, obs.Opt(sc))
}

// MultiExpG2StreamScalars is the G2 counterpart of
// MultiExpG1StreamScalars. Points must have order r (see MultiExpG2) —
// a NewG2RawSource decodes with SetBytesRaw, which does not check it, so
// the bytes it reads must be key material this program wrote.
func MultiExpG2StreamScalars(src G2Source, scalars []fr.Element, c, chunk int, sc ...obs.Scope) (G2Jac, error) {
	return multiExpStream[G2Affine, G2Jac](g2Msm{}, src, len(scalars), residentScalars(scalars), c, chunk, obs.Opt(sc))
}

// MultiExpG2StreamScalarSource is the G2 counterpart of
// MultiExpG1StreamScalarSource — used for the B2 wire-query MSM when
// the witness is spilled.
func MultiExpG2StreamScalarSource(src G2Source, scalars ScalarSource, n, c, chunk int, sc ...obs.Scope) (G2Jac, error) {
	buf := getScalarChunk(streamChunkSize(n, chunk))
	defer putScalarChunk(buf)
	return multiExpStream[G2Affine, G2Jac](g2Msm{}, src, n, sourcedScalars(scalars, buf), c, chunk, obs.Opt(sc))
}

// StreamWindowSize picks the Pippenger window width for a streamed MSM
// of n total points walked in chunks of the given size: each chunk runs
// its own bucket accumulation and reduction, so the width that balances
// inserts against bucket scans is the chunk's, not the total's.
func StreamWindowSize(n, chunk int) int {
	return MSMWindowSize(streamChunkSize(n, chunk))
}

// NewG1RawSource returns a G1Source decoding the contiguous run of
// uncompressed (BytesRaw) points that starts at byte offset off in r —
// the layout of one proving-key query section in the raw key encoding.
// Decoding parallelizes across the chunk; the byte buffer is reused
// between calls, so the source must not be shared across goroutines.
func NewG1RawSource(r io.ReaderAt, off int64) G1Source {
	var raw []byte
	return func(dst []G1Affine, start int) error {
		need := len(dst) * G1UncompressedSize
		if cap(raw) < need {
			raw = make([]byte, need)
		}
		b := raw[:need]
		if _, err := r.ReadAt(b, off+int64(start)*G1UncompressedSize); err != nil {
			return err
		}
		return decodeRawChunk(len(dst), func(i int) error {
			return dst[i].SetBytesRaw(b[i*G1UncompressedSize : (i+1)*G1UncompressedSize])
		})
	}
}

// NewG2RawSource is the G2 counterpart of NewG1RawSource (128-byte
// uncompressed points).
func NewG2RawSource(r io.ReaderAt, off int64) G2Source {
	var raw []byte
	return func(dst []G2Affine, start int) error {
		need := len(dst) * G2UncompressedSize
		if cap(raw) < need {
			raw = make([]byte, need)
		}
		b := raw[:need]
		if _, err := r.ReadAt(b, off+int64(start)*G2UncompressedSize); err != nil {
			return err
		}
		return decodeRawChunk(len(dst), func(i int) error {
			return dst[i].SetBytesRaw(b[i*G2UncompressedSize : (i+1)*G2UncompressedSize])
		})
	}
}

// decodeRawChunk runs the per-point decode in parallel, keeping the
// first error observed.
func decodeRawChunk(n int, decode func(i int) error) error {
	var mu sync.Mutex
	var firstErr error
	par.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := decode(i); err != nil {
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
