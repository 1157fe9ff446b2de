package curve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/par"
)

// SliceSourceG1 adapts an in-memory point slice to a G1Source — the
// degenerate source the streamed-driver tests and benchmarks read from.
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

// streamShape is one row of the streamed-MSM tables: n scalars drawn by
// scalars, walked in chunks of chunk points.
type streamShape struct {
	name     string
	n, chunk int
	scalars  func(rng *rand.Rand, n int) []fr.Element
}

// carryScalars are random full-width scalars with the recoding's carry
// paths mixed in: zeros, ones and r−1.
func carryScalars(rng *rand.Rand, n int) []fr.Element {
	scalars := fullScalars(rng, n)
	for i := range scalars {
		switch i % 7 {
		case 0:
			scalars[i].SetZero()
		case 3:
			scalars[i].SetOne()
			scalars[i].Neg(&scalars[i])
		case 5:
			scalars[i].SetOne()
		}
	}
	return scalars
}

// streamShapes are the chunk patterns the one bucket set of a streamed
// MSM has to carry: a chunk size that does not divide n, all-zero chunks
// (the first, so the run is planned on a later one, and one between), a
// chunk of one repeated scalar that fills the conflict queue and
// collapses it followed by a chunk that hits the same buckets, and chunks whose digits reach different window counts (the
// run planned on 16-bit values, then extended). Chunks of 600 points let
// the cells run batch-affine.
func streamShapes() []streamShape {
	const chunk = 600
	perChunk := func(draws ...func(*rand.Rand, int) []fr.Element) func(*rand.Rand, int) []fr.Element {
		return func(rng *rand.Rand, n int) []fr.Element {
			out := make([]fr.Element, 0, n)
			for i := 0; len(out) < n; i++ {
				out = append(out, draws[i%len(draws)](rng, min(chunk, n-len(out)))...)
			}
			return out
		}
	}
	zeros := func(_ *rand.Rand, n int) []fr.Element { return make([]fr.Element, n) }
	repeated := func(_ *rand.Rand, n int) []fr.Element {
		s := make([]fr.Element, n)
		for i := range s {
			s[i].SetUint64(5)
		}
		return s
	}
	bits := func(k int) func(*rand.Rand, int) []fr.Element {
		return func(rng *rand.Rand, n int) []fr.Element { return signedScalars(rng, n, k) }
	}
	return []streamShape{
		{"chunk not dividing n", 1300, chunk, carryScalars},
		{"all-zero chunks", 2100, chunk, perChunk(zeros, carryScalars, zeros, carryScalars)},
		{"spilling repeated scalar, then the same buckets", 1700, chunk, perChunk(repeated, repeated, carryScalars)},
		{"chunks reaching different windows", 1900, chunk, perChunk(bits(16), carryScalars, bits(64), bits(16))},
	}
}

// TestStreamMSMMatchesInMemory runs the chunked MSM — resident and
// sourced scalars — over sizes that straddle every chunk boundary
// (chunk−1: a single partial chunk; chunk; chunk+1: a 1-point tail;
// multiples and non-powers-of-two) and over the streamShapes, at
// GOMAXPROCS 1 and 2, and asserts the streamed sum is MultiExpG1's on the
// same inputs bit for bit.
func TestStreamMSMMatchesInMemory(t *testing.T) {
	rows := streamShapes()
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 3*64 + 17, 333} {
		rows = append(rows, streamShape{fmt.Sprintf("n=%d", n), n, 64, carryScalars})
	}
	rng := rand.New(rand.NewSource(401))
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, row := range rows {
				points, scalars := chainPointsG1(rng, row.n), row.scalars(rng, row.n)
				var want G1Affine
				wantJac := MultiExpG1(points, scalars)
				want.FromJacobian(&wantJac)
				c := StreamWindowSize(row.n, row.chunk)
				resident, err := MultiExpG1StreamScalars(SliceSourceG1(points), scalars, c, row.chunk)
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				sourced, err := MultiExpG1StreamScalarSource(SliceSourceG1(points), scalarSliceSource(scalars), row.n, c, row.chunk)
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				for view, got := range map[string]G1Jac{"resident scalars": resident, "sourced scalars": sourced} {
					var gotAff G1Affine
					gotAff.FromJacobian(&got)
					if gotAff.BytesRaw() != want.BytesRaw() {
						t.Errorf("GOMAXPROCS %d, %s, %s: streamed G1 MSM diverges from MultiExpG1", procs, row.name, view)
					}
				}
			}
		}()
	}
}

// TestStreamMSMG2MatchesInMemory is the G2 counterpart: the boundary
// sweep at a 32-point chunk and the same streamShapes, at GOMAXPROCS 1
// and 2, against MultiExpG2 bit for bit.
func TestStreamMSMG2MatchesInMemory(t *testing.T) {
	rows := streamShapes()
	for _, n := range []int{31, 32, 33, 69, 77} {
		rows = append(rows, streamShape{fmt.Sprintf("n=%d", n), n, 32, carryScalars})
	}
	rng := rand.New(rand.NewSource(402))
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, row := range rows {
				points, scalars := chainPointsG2(rng, row.n), row.scalars(rng, row.n)
				var want, gotAff G2Affine
				wantJac := MultiExpG2(points, scalars)
				want.FromJacobian(&wantJac)
				got, err := MultiExpG2StreamScalarSource(SliceSourceG2(points), scalarSliceSource(scalars), row.n, StreamWindowSize(row.n, row.chunk), row.chunk)
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				gotAff.FromJacobian(&got)
				if gotAff.BytesRaw() != want.BytesRaw() {
					t.Errorf("GOMAXPROCS %d, %s: streamed G2 MSM diverges from MultiExpG2", procs, row.name)
				}
			}
		}()
	}
}

// TestStreamMSMRawSource runs the full disk-shaped path: points encoded
// with BytesRaw into one contiguous section (with a nonzero offset, as
// in a proving-key file), decoded back through NewG1RawSource chunk by
// chunk.
func TestStreamMSMRawSource(t *testing.T) {
	const chunk = 48
	rng := rand.New(rand.NewSource(403))
	n := 3*chunk + 5
	points, scalars := msmTestVectors(rng, n)

	var buf bytes.Buffer
	buf.WriteString("hdr-padding") // non-zero section offset
	off := int64(buf.Len())
	for i := range points {
		b := points[i].BytesRaw()
		buf.Write(b[:])
	}

	c := StreamWindowSize(n, chunk)
	want := MultiExpG1Decomposed(points, DecomposeScalars(scalars, c))
	got, err := MultiExpG1StreamScalars(NewG1RawSource(bytes.NewReader(buf.Bytes()), off), scalars, c, chunk)
	if err != nil {
		t.Fatalf("raw-source streamed MSM: %v", err)
	}
	var wantAff, gotAff G1Affine
	wantAff.FromJacobian(&want)
	gotAff.FromJacobian(&got)
	if !gotAff.Equal(&wantAff) {
		t.Fatal("raw-source streamed MSM diverges from in-memory")
	}
}

// rawRoundTrip lays pts out as one raw section behind a 3-byte offset,
// then requires each encoding to decode back to its point both alone
// (dec) and through the raw source (src). Each bad encoding must be
// refused by both.
func rawRoundTrip[P comparable](t *testing.T, pts []P, enc func(*P) []byte, dec func(*P, []byte) error,
	src func(io.ReaderAt, int64) func([]P, int) error, bad [][]byte) {
	t.Helper()
	section := []byte("pad")
	for i := range pts {
		b := enc(&pts[i])
		var got P
		if err := dec(&got, b); err != nil || got != pts[i] {
			t.Fatalf("point %d: decodes to %v, %v", i, got, err)
		}
		section = append(section, b...)
	}
	got := make([]P, len(pts))
	if err := src(bytes.NewReader(section), 3)(got, 0); err != nil {
		t.Fatalf("raw source: %v", err)
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("raw source: point %d differs", i)
		}
	}
	for i, b := range bad {
		var p P
		if err := dec(&p, b); err == nil {
			t.Errorf("bad encoding %d decoded", i)
		}
		if err := src(bytes.NewReader(b), 0)(make([]P, 1), 0); err == nil {
			t.Errorf("bad encoding %d decoded through the raw source", i)
		}
	}
}

// TestRawEncodingRoundTrip holds BytesRaw and SetBytesRaw (alone and
// under NewG1RawSource/NewG2RawSource) to an exact round trip of ∞, the
// generator and random points in G1 and G2, and to refusing a point off
// the curve, a coordinate equal to p (also where the rest is ∞'s
// zeros) and a wrong length.
func TestRawEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	pLimbs := fp.Mont().Q()
	var pBytes [fp.Bytes]byte
	for i, w := range pLimbs {
		binary.LittleEndian.PutUint64(pBytes[8*i:], w)
	}
	withP := func(b []byte, at int) []byte {
		b = bytes.Clone(b)
		copy(b[at:], pBytes[:])
		return b
	}
	one := fp.NewElement(1)

	g1 := []G1Affine{{}}
	for i := range 20 {
		j := G1Generator()
		if i > 0 {
			j = randG1(rng)
		}
		var a G1Affine
		a.FromJacobian(&j)
		g1 = append(g1, a)
	}
	offG1 := g1[1]
	offG1.Y.Add(&offG1.Y, &one)
	enc1 := func(p *G1Affine) []byte { b := p.BytesRaw(); return b[:] }
	rawRoundTrip(t, g1, enc1, (*G1Affine).SetBytesRaw,
		func(r io.ReaderAt, off int64) func([]G1Affine, int) error { return NewG1RawSource(r, off) },
		[][]byte{enc1(&offG1), withP(enc1(&g1[2]), 0), withP(enc1(&g1[2]), fp.Bytes), withP(enc1(&g1[0]), 0)})
	if err := new(G1Affine).SetBytesRaw(enc1(&g1[1])[1:]); err == nil {
		t.Error("a 63-byte G1 encoding decoded")
	}

	g2 := []G2Affine{{}}
	for i := range 20 {
		j := G2Generator()
		if i > 0 {
			j = randG2(rng)
		}
		var a G2Affine
		a.FromJacobian(&j)
		g2 = append(g2, a)
	}
	offG2 := g2[1]
	offG2.Y.A0.Add(&offG2.Y.A0, &one)
	enc2 := func(p *G2Affine) []byte { b := p.BytesRaw(); return b[:] }
	bad2 := [][]byte{enc2(&offG2), withP(enc2(&g2[0]), 3*fp.Bytes)}
	for at := 0; at < G2UncompressedSize; at += fp.Bytes {
		bad2 = append(bad2, withP(enc2(&g2[2]), at))
	}
	rawRoundTrip(t, g2, enc2, (*G2Affine).SetBytesRaw,
		func(r io.ReaderAt, off int64) func([]G2Affine, int) error { return NewG2RawSource(r, off) }, bad2)
	if err := new(G2Affine).SetBytesRaw(append(enc2(&g2[1]), 0)); err == nil {
		t.Error("a 129-byte G2 encoding decoded")
	}
}

// TestStreamMSMWindowWidthIndependence checks the linchpin of the
// streamed/in-memory proof identity: the group element is the same no
// matter how the MSM is chunked or which window width recodes the
// scalars, because affine normalization is canonical.
func TestStreamMSMWindowWidthIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	n := 150
	points, scalars := msmTestVectors(rng, n)
	ref := MultiExpG1(points, scalars)
	var refAff G1Affine
	refAff.FromJacobian(&ref)

	for _, c := range []int{3, 7, 11} {
		for _, chunk := range []int{16, 64, 1024} {
			got, err := MultiExpG1StreamScalars(SliceSourceG1(points), scalars, c, chunk)
			if err != nil {
				t.Fatalf("c=%d chunk=%d: %v", c, chunk, err)
			}
			var gotAff G1Affine
			gotAff.FromJacobian(&got)
			if !gotAff.Equal(&refAff) {
				t.Fatalf("c=%d chunk=%d: streamed MSM diverges", c, chunk)
			}
		}
	}
}

// TestStreamMSMScalarSourceMatchesResident checks the two scalar views
// of the one streamed driver against each other — a resident slice and
// the same scalars arriving through a ScalarSource — in G1, and the G2
// scalar-source MSM against the in-memory one, across chunk-straddling
// sizes.
func TestStreamMSMScalarSourceMatchesResident(t *testing.T) {
	const chunk = 64
	rng := rand.New(rand.NewSource(407))
	for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 3*chunk + 17} {
		points, scalars := msmTestVectors(rng, n)
		c := StreamWindowSize(n, chunk)

		resident, err := MultiExpG1StreamScalars(SliceSourceG1(points), scalars, c, chunk)
		if err != nil {
			t.Fatal(err)
		}
		sourced, err := MultiExpG1StreamScalarSource(SliceSourceG1(points), scalarSliceSource(scalars), n, c, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if !sourced.Equal(&resident) {
			t.Fatalf("n=%d: sourced scalars diverge from resident scalars (G1)", n)
		}

		points2 := chainPointsG2(rng, n)
		resident2 := MultiExpG2(points2, scalars)
		sourced2, err := MultiExpG2StreamScalarSource(SliceSourceG2(points2), scalarSliceSource(scalars), n, c, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if !sourced2.Equal(&resident2) {
			t.Fatalf("n=%d: sourced scalars diverge from resident scalars (G2)", n)
		}
	}
}

// TestStreamMSMSourceError checks that a failing source surfaces as an
// error (wrapped with the failing offset) rather than a wrong sum.
func TestStreamMSMSourceError(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	n := 100
	points, scalars := msmTestVectors(rng, n)

	boom := errors.New("disk gone")
	failAt := 64
	src := func(dst []G1Affine, start int) error {
		if start >= failAt {
			return boom
		}
		copy(dst, points[start:start+len(dst)])
		return nil
	}
	if _, err := MultiExpG1StreamScalars(src, scalars, StreamWindowSize(n, 32), 32); !errors.Is(err, boom) {
		t.Fatalf("want wrapped source error, got %v", err)
	}
}

// TestStreamMSMScalarSourceErrorStopsStream pins what a failed scalar
// read costs: with the scalars of the second of eight chunks unreadable,
// the call returns the error with the scalar offset in it, the point
// source has been asked for at most three chunks (the two consumed and
// the one prefetched) instead of the whole section, and the prefetch
// goroutine is gone when the call returns.
func TestStreamMSMScalarSourceErrorStopsStream(t *testing.T) {
	const chunk, chunks = 32, 8
	n := chunk * chunks
	rng := rand.New(rand.NewSource(408))
	points, scalars := msmTestVectors(rng, n)

	boom := errors.New("spill file gone")
	reads := 0 // the driver calls a point source from one goroutine
	src := func(dst []G1Affine, start int) error {
		reads++
		copy(dst, points[start:start+len(dst)])
		return nil
	}
	failing := func(dst []fr.Element, start int) error {
		if start == chunk {
			return boom
		}
		copy(dst, scalars[start:start+len(dst)])
		return nil
	}

	before := runtime.NumGoroutine()
	_, err := MultiExpG1StreamScalarSource(src, failing, n, StreamWindowSize(n, chunk), chunk)
	if !errors.Is(err, boom) {
		t.Fatalf("want the scalar source's error, got %v", err)
	}
	if !strings.Contains(err.Error(), "scalar read at 32") {
		t.Fatalf("error does not name the scalar offset: %v", err)
	}
	if reads > 3 {
		t.Fatalf("point source read %d chunks after a scalar failure on chunk 2, want at most 3", reads)
	}
	// The driver waits for its prefetcher, so the count is already back;
	// the grace period only absorbs unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the call, %d after — the prefetcher leaked", before, after)
	}
}

// TestStreamMSMSourcePanicReachesCaller: a point source that panics on
// its second chunk — how a par worker failure inside a raw source's
// decode arrives, on the prefetch goroutine — fails the call, not the
// process: the caller recovers a *par.Panic with the source's value and
// the prefetcher's stack, and the prefetcher is gone by then.
func TestStreamMSMSourcePanicReachesCaller(t *testing.T) {
	const chunk, chunks = 32, 4
	n := chunk * chunks
	points, scalars := msmTestVectors(rand.New(rand.NewSource(409)), n)
	src := func(dst []G1Affine, start int) error {
		if start == chunk {
			panic("bad chunk")
		}
		copy(dst, points[start:start+len(dst)])
		return nil
	}

	before := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		MultiExpG1StreamScalars(src, scalars, StreamWindowSize(n, chunk), chunk)
	}()
	p, ok := recovered.(*par.Panic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *par.Panic", recovered, recovered)
	}
	if p.Value != "bad chunk" || !strings.Contains(string(p.Stack), "stream_test.go") {
		t.Fatalf("panic value %v, stack does not name the source:\n%s", p.Value, p.Stack)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the call, %d after — the prefetcher leaked", before, after)
	}
}
