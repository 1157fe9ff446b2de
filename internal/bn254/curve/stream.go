package curve

import (
	"errors"
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

// multiExpStream runs the shared chunked MSM: it pulls bounded point
// chunks from src (prefetching one chunk ahead) and folds the per-chunk
// Pippenger partial sums. digits supplies the recoded scalars for one
// chunk — either a zero-copy view into a whole-vector decomposition or
// a fresh per-chunk recoding (identical digits either way, since the
// signed-digit recoding never crosses scalar boundaries).
//
// tr, when non-nil, records one span per chunk read (on its own lane —
// reads overlap compute), per scalar recode, and per chunk MSM under
// label — exposing whether a streamed prove is disk-bound or
// compute-bound. The nil path costs one nil check per chunk.
func multiExpStream[A, J any, CV msmCurve[A, J]](cv CV, src func(dst []A, start int) error, n int, digits func(start, end int) *ScalarDecomposition, chunk int, tr *obs.Trace, label string) (J, error) {
	sum := cv.infinity()
	if n == 0 {
		return sum, nil
	}
	chunk = streamChunkSize(n, chunk)

	var readName, recodeName, msmName string
	var readLane int
	if tr != nil {
		readName, recodeName, msmName = label+"/read", label+"/recode", label+"/msm"
		readLane = tr.NextLane()
	}

	type filled struct {
		buf        []A
		start, end int
		err        error
	}
	fills := make(chan filled)
	free := make(chan []A, 2)
	free <- make([]A, chunk)
	free <- make([]A, chunk)
	go func() {
		defer close(fills)
		for start := 0; start < n; start += chunk {
			end := start + chunk
			if end > n {
				end = n
			}
			buf := <-free
			var sp *obs.Span
			if tr != nil {
				sp = tr.SpanLane(readName, readLane)
			}
			err := src(buf[:end-start], start)
			sp.End()
			fills <- filled{buf: buf, start: start, end: end, err: err}
			if err != nil {
				return // consumer stops at the error; nothing more to send
			}
		}
	}()
	for f := range fills {
		if f.err != nil {
			return sum, fmt.Errorf("curve: streamed MSM read at %d: %w", f.start, f.err)
		}
		var sp *obs.Span
		if tr != nil {
			sp = tr.Span(recodeName)
		}
		dec := digits(f.start, f.end)
		sp.End()
		if tr != nil {
			sp = tr.Span(msmName)
		}
		// Each chunk resolves the accelerator at dispatch time, so a
		// backend registered mid-stream picks up the remaining chunks and
		// an out-of-process backend serves out-of-core proves unchanged.
		part := cv.accelerated(ActiveAccelerator(), f.buf[:f.end-f.start], dec)
		sp.End()
		free <- f.buf
		cv.add(&sum, &part)
	}
	return sum, nil
}

// MultiExpG1Stream computes Σ kᵢ·Pᵢ where the points arrive from src in
// bounded chunks instead of living in RAM. The decomposition covers the
// full scalar vector (its Len is the MSM size); pick the window width
// for the chunk size, not the total size — each chunk runs its own
// Pippenger pass. The result equals MultiExpG1 on the same inputs.
func MultiExpG1Stream(src G1Source, dec *ScalarDecomposition, chunk int) (G1Jac, error) {
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, dec.n, dec.Slice, chunk, nil, "")
}

// MultiExpG2Stream is the G2 counterpart of MultiExpG1Stream. Points
// must have order r (see MultiExpG2) — a NewG2RawSource decodes with
// SetBytesRaw, which does not check it, so the bytes it reads must be
// key material this program wrote.
func MultiExpG2Stream(src G2Source, dec *ScalarDecomposition, chunk int) (G2Jac, error) {
	return multiExpStream[G2Affine, G2Jac](g2Msm{}, src, dec.n, dec.Slice, chunk, nil, "")
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
// scalar-source MSM variants the same way.
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

// MultiExpG1StreamScalars is MultiExpG1Stream with lazy scalar recoding:
// instead of a whole-vector decomposition (two digit bytes per window
// per scalar — tens of MB at paper scale), each chunk's scalars are
// recoded with window width c just before its Pippenger pass. Digits are
// identical to the eager path because the signed-digit recoding is
// per-scalar, so the result (and any proof built from it) is unchanged;
// only the resident digit memory drops to one chunk's worth.
func MultiExpG1StreamScalars(src G1Source, scalars []fr.Element, c, chunk int) (G1Jac, error) {
	return MultiExpG1StreamScalarsTraced(src, scalars, c, chunk, nil, "")
}

// MultiExpG1StreamScalarsTraced is MultiExpG1StreamScalars recording
// per-chunk read/recode/MSM spans on tr under label (nil tr is the
// untraced fast path).
func MultiExpG1StreamScalarsTraced(src G1Source, scalars []fr.Element, c, chunk int, tr *obs.Trace, label string) (G1Jac, error) {
	reuse := getDecomposition()
	defer func() { putDecomposition(reuse) }()
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, len(scalars), func(start, end int) *ScalarDecomposition {
		// The driver consumes each chunk's digits before requesting the
		// next, so one digit buffer serves every chunk.
		reuse = decomposeScalarsInto(reuse, scalars[start:end], c)
		return reuse
	}, chunk, tr, label)
}

// ScalarSource fills dst with the MSM scalars [start, start+len(dst)) —
// the scalar-side analogue of G1Source, for MSMs whose scalars live
// out-of-core too (e.g. a spilled quotient polynomial). Called serially
// by the streamed driver.
type ScalarSource func(dst []fr.Element, start int) error

// MultiExpG1StreamScalarSource is MultiExpG1StreamScalars with the
// scalars also arriving from a source instead of RAM: each chunk's
// scalars are loaded into a reused buffer and recoded just before its
// Pippenger pass, so neither side of the MSM is ever fully resident.
// The result equals MultiExpG1 on the same inputs.
func MultiExpG1StreamScalarSource(src G1Source, scalars ScalarSource, n, c, chunk int) (G1Jac, error) {
	return MultiExpG1StreamScalarSourceTraced(src, scalars, n, c, chunk, nil, "")
}

// MultiExpG1StreamScalarSourceTraced is MultiExpG1StreamScalarSource
// with per-chunk span recording (the scalar-file read is folded into
// the recode span — both sit between chunks on the consumer side).
func MultiExpG1StreamScalarSourceTraced(src G1Source, scalars ScalarSource, n, c, chunk int, tr *obs.Trace, label string) (G1Jac, error) {
	reuse := getDecomposition()
	defer func() { putDecomposition(reuse) }()
	sbuf := getScalarChunk(streamChunkSize(n, chunk))
	defer putScalarChunk(sbuf)
	var srcErr error
	res, err := multiExpStream[G1Affine, G1Jac](g1Msm{}, src, n, func(start, end int) *ScalarDecomposition {
		if cap(sbuf) < end-start {
			sbuf = make([]fr.Element, end-start)
		}
		s := sbuf[:end-start]
		if srcErr == nil {
			if err := scalars(s, start); err != nil {
				srcErr = fmt.Errorf("curve: streamed MSM scalar read at %d: %w", start, err)
			}
		}
		if srcErr != nil {
			clear(s) // keep the doomed pass harmless; the error surfaces below
		}
		reuse = decomposeScalarsInto(reuse, s, c)
		return reuse
	}, chunk, tr, label)
	if err == nil {
		err = srcErr
	}
	return res, err
}

// MultiExpG2StreamScalars is the G2 counterpart of MultiExpG1StreamScalars.
func MultiExpG2StreamScalars(src G2Source, scalars []fr.Element, c, chunk int) (G2Jac, error) {
	return MultiExpG2StreamScalarsTraced(src, scalars, c, chunk, nil, "")
}

// MultiExpG2StreamScalarsTraced is the G2 counterpart of
// MultiExpG1StreamScalarsTraced.
func MultiExpG2StreamScalarsTraced(src G2Source, scalars []fr.Element, c, chunk int, tr *obs.Trace, label string) (G2Jac, error) {
	reuse := getDecomposition()
	defer func() { putDecomposition(reuse) }()
	return multiExpStream[G2Affine, G2Jac](g2Msm{}, src, len(scalars), func(start, end int) *ScalarDecomposition {
		reuse = decomposeScalarsInto(reuse, scalars[start:end], c)
		return reuse
	}, chunk, tr, label)
}

// MultiExpG2StreamScalarSource is the G2 counterpart of
// MultiExpG1StreamScalarSource — bases and scalars both arrive from
// sources, so neither side is ever fully resident. Used for the B2
// wire-query MSM when the witness is spilled.
func MultiExpG2StreamScalarSource(src G2Source, scalars ScalarSource, n, c, chunk int) (G2Jac, error) {
	return MultiExpG2StreamScalarSourceTraced(src, scalars, n, c, chunk, nil, "")
}

// MultiExpG2StreamScalarSourceTraced is the G2 counterpart of
// MultiExpG1StreamScalarSourceTraced.
func MultiExpG2StreamScalarSourceTraced(src G2Source, scalars ScalarSource, n, c, chunk int, tr *obs.Trace, label string) (G2Jac, error) {
	reuse := getDecomposition()
	defer func() { putDecomposition(reuse) }()
	sbuf := getScalarChunk(streamChunkSize(n, chunk))
	defer putScalarChunk(sbuf)
	var srcErr error
	res, err := multiExpStream[G2Affine, G2Jac](g2Msm{}, src, n, func(start, end int) *ScalarDecomposition {
		if cap(sbuf) < end-start {
			sbuf = make([]fr.Element, end-start)
		}
		s := sbuf[:end-start]
		if srcErr == nil {
			if err := scalars(s, start); err != nil {
				srcErr = fmt.Errorf("curve: streamed MSM scalar read at %d: %w", start, err)
			}
		}
		if srcErr != nil {
			clear(s)
		}
		reuse = decomposeScalarsInto(reuse, s, c)
		return reuse
	}, chunk, tr, label)
	if err == nil {
		err = srcErr
	}
	return res, err
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

// SliceSourceG1 adapts an in-memory point slice to a G1Source — the
// degenerate source used by tests and by callers that already hold the
// points but want the bounded-memory accumulation path.
func SliceSourceG1(points []G1Affine) G1Source {
	return func(dst []G1Affine, start int) error {
		if start < 0 || start+len(dst) > len(points) {
			return errors.New("curve: slice source read out of range")
		}
		copy(dst, points[start:start+len(dst)])
		return nil
	}
}

// SliceSourceG2 adapts an in-memory point slice to a G2Source.
func SliceSourceG2(points []G2Affine) G2Source {
	return func(dst []G2Affine, start int) error {
		if start < 0 || start+len(dst) > len(points) {
			return errors.New("curve: slice source read out of range")
		}
		copy(dst, points[start:start+len(dst)])
		return nil
	}
}
