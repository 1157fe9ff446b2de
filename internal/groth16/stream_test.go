package groth16

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/diskfile"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// openStreamed wraps a raw proving-key buffer in a StreamedProvingKey
// with a tiny chunk so the 5-wire cubic system actually exercises the
// chunked MSM path (multiple partial chunks per section).
func openStreamed(t *testing.T, raw []byte, chunk int) *StreamedProvingKey {
	t.Helper()
	spk, err := OpenStreamedProvingKey(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("OpenStreamedProvingKey: %v", err)
	}
	spk.Chunk = chunk
	return spk
}

// TestSetupStreamedMatchesSetup pins the one setup body and the one
// raw-layout writer from every side: under one seeded rng SetupStreamed's
// bytes equal Setup + WriteRawTo's bytes, whether the constraints are
// resident or a CSR section file, and both equal the pinned bytes (by
// SHA-256; the cubic key is the one TestGoldenWireFormats pins byte for
// byte as pk.raw.hex) — on a key whose every section fits in one
// DefaultStreamChunk batch and on one whose A, B1 and B2 sections span
// two while K and Z fit in one. The verifying key matches too.
func TestSetupStreamedMatchesSetup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sys    *r1cs.CompiledSystem
		pinned string // SHA-256 of the version-2 raw key, seed goldenSeed
	}{
		{"one batch per section", cubicSystem(), "ea2b7a639c98ebf396319b10788987cd78dca3b82cd8130d9b2311d63ac8237f"},
		{"sections spanning batches", chainSystem(curve.DefaultStreamChunk - 2), "0d538953f6a1b390862471764b51ceb14d7213072dc1422a5da129c90aa30e0b"},
	} {
		path := filepath.Join(t.TempDir(), "sys.csr")
		if err := r1cs.WriteCompiledSystemFile(path, tc.sys); err != nil {
			t.Fatal(err)
		}
		csf, err := r1cs.OpenCompiledSystemFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer csf.Close()
		for _, cons := range []r1cs.Constraints{tc.sys, csf} {
			pk, vk, err := Setup(cons, rand.New(rand.NewSource(goldenSeed)))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := pk.WriteRawTo(&want); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			svk, err := SetupStreamed(cons, rand.New(rand.NewSource(goldenSeed)), &got)
			if err != nil {
				t.Fatalf("%s, %T: SetupStreamed: %v", tc.name, cons, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s, %T: SetupStreamed bytes diverge from Setup+WriteRawTo (%d vs %d bytes)", tc.name, cons, got.Len(), want.Len())
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(got.Bytes())); sum != tc.pinned {
				t.Fatalf("%s, %T: raw key hashes to %s, pinned %s", tc.name, cons, sum, tc.pinned)
			}
			var vkBuf, svkBuf bytes.Buffer
			if _, err := vk.WriteTo(&vkBuf); err != nil {
				t.Fatal(err)
			}
			if _, err := svk.WriteTo(&svkBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(vkBuf.Bytes(), svkBuf.Bytes()) {
				t.Fatalf("%s, %T: SetupStreamed verifying key diverges from Setup", tc.name, cons)
			}
		}
	}
}

// TestQAPAccumulateWindows holds setup's one QAP accumulation to a
// math/big sum per wire, Σ coeff·lag[row] over every term of a matrix
// spelled out by r1cstest.RowsOf, at window bounds that put every row in
// a window of its own (1), cut across rows (3, 64) and take the whole
// matrix in one window (math.MaxInt) — on a resident system and on the
// same system as a CSR file, for fixtures with one term a row, with
// several, and with a wire repeated inside a row and across rows.
func TestQAPAccumulateWindows(t *testing.T) {
	T := r1cstest.T
	repeats := mustCSR(&r1cstest.Rows{NbPublic: 2, NbWires: 5, Rows: []r1cstest.Row{
		{A: []r1cstest.Term{T(2, 3), T(3, 1), T(2, -1)}, B: []r1cstest.Term{T(0, 1)}, C: []r1cstest.Term{T(4, 2), T(4, 5)}},
		{A: []r1cstest.Term{T(2, 1)}, B: []r1cstest.Term{T(2, 7), T(3, 1), T(2, 1), T(3, 4)}, C: []r1cstest.Term{T(1, 1)}},
		{A: []r1cstest.Term{T(3, -2), T(4, 1), T(3, 9), T(2, 1), T(0, 6)}, B: []r1cstest.Term{T(4, 1)}, C: []r1cstest.Term{T(2, 1), T(2, 1)}},
	}})
	modulus := fr.Modulus()
	rng := rand.New(rand.NewSource(0x9a9))
	for _, tc := range []struct {
		name string
		sys  *r1cs.CompiledSystem
	}{{"cubic", cubicSystem()}, {"chain", chainSystem(300)}, {"repeated wires", repeats}} {
		rows := r1cstest.RowsOf(tc.sys)
		lag := make([]fr.Element, len(rows.Rows))
		for i := range lag {
			if _, err := lag[i].SetRandom(rng); err != nil {
				t.Fatal(err)
			}
		}
		var want [3][]*big.Int
		for j := range want {
			want[j] = make([]*big.Int, rows.NbWires)
			for w := range want[j] {
				want[j][w] = new(big.Int)
			}
		}
		for i, row := range rows.Rows {
			l := lag[i].ToBigInt()
			for j, terms := range [3][]r1cstest.Term{row.A, row.B, row.C} {
				for _, term := range terms {
					sum := want[j][term.Wire]
					sum.Add(sum, new(big.Int).Mul(term.Coeff, l))
					sum.Mod(sum, modulus)
				}
			}
		}

		path := filepath.Join(t.TempDir(), "sys.csr")
		if err := r1cs.WriteCompiledSystemFile(path, tc.sys); err != nil {
			t.Fatal(err)
		}
		csf, err := r1cs.OpenCompiledSystemFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer csf.Close()
		for _, cons := range []r1cs.Constraints{tc.sys, csf} {
			for _, bound := range []int{1, 3, 64, math.MaxInt} {
				for j, ms := range []r1cs.MatrixStream{cons.MatA(), cons.MatB(), cons.MatC()} {
					dst := make([]fr.Element, rows.NbWires)
					if err := qapAccumulate(ms, lag, dst, bound); err != nil {
						t.Fatal(err)
					}
					for w := range dst {
						if got := dst[w].ToBigInt(); got.Cmp(want[j][w]) != 0 {
							t.Fatalf("%s, %T, %d-term windows, matrix %c, wire %d: got %v, want %v",
								tc.name, cons, bound, "ABC"[j], w, got, want[j][w])
						}
					}
				}
			}
		}
	}
}

// failAfter is a writer that takes limit bytes and then fails.
type failAfter struct {
	limit, n int
}

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		k := f.limit - f.n
		f.n = f.limit
		return k, errSinkFull
	}
	f.n += len(p)
	return len(p), nil
}

// TestSetupStreamedSinkError: a sink that fails — inside the header,
// inside a G1 section, inside B2 — stops the setup with the sink's error
// at exactly that byte, no further randomness is drawn on the way out
// (all of it is spent before the first point is multiplied), and written
// through diskfile the failed key leaves no file behind.
func TestSetupStreamedSinkError(t *testing.T) {
	sys := cubicSystem()
	size, err := RawPKSizeBytes(sys)
	if err != nil {
		t.Fatal(err)
	}
	whole := &countingReader{r: rand.New(rand.NewSource(97))}
	if _, err := SetupStreamed(sys, whole, io.Discard); err != nil {
		t.Fatal(err)
	}
	b2 := int(size) - sys.NbWires*curve.G2UncompressedSize // first point of the last section
	for _, tc := range []struct {
		name  string
		limit int
	}{
		{"inside the magic", 2},
		{"inside the header points", 100},
		{"inside section A", rawPKFixedHeaderSize + 4 + curve.G1UncompressedSize + 7},
		{"at B2's count", b2 - 2},
		{"inside B2", b2 + curve.G2UncompressedSize + 1},
		{"one byte short", int(size) - 1},
	} {
		rng := &countingReader{r: rand.New(rand.NewSource(97))}
		sink := &failAfter{limit: tc.limit}
		if _, err := SetupStreamed(sys, rng, sink); !errors.Is(err, errSinkFull) {
			t.Errorf("%s: got %v, want the sink's error", tc.name, err)
		}
		if sink.n != tc.limit {
			t.Errorf("%s: sink took %d bytes, want the setup to stop at byte %d", tc.name, sink.n, tc.limit)
		}
		if rng.n != whole.n {
			t.Errorf("%s: failed setup drew %d random bytes, a whole one draws %d", tc.name, rng.n, whole.n)
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "key.pk")
		_, err := diskfile.WriteFramed(path, [4]byte{'Z', 'K', 'F', '1'}, func(w io.Writer) error {
			// The frame writer buffers; fail between it and setup.
			_, err := SetupStreamed(sys, rand.New(rand.NewSource(97)), io.MultiWriter(&failAfter{limit: tc.limit}, w))
			return err
		})
		if !errors.Is(err, errSinkFull) {
			t.Errorf("%s: WriteFramed returned %v, want the sink's error", tc.name, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: failed key write left %d entries in the directory", tc.name, len(entries))
		}
	}
}

// TestRawPKSizeBytes checks the size predictor against an actual
// serialized key — the engine's streaming decision rides on it.
func TestRawPKSizeBytes(t *testing.T) {
	sys := cubicSystem()
	pk, _, err := Setup(sys, rand.New(rand.NewSource(91)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := RawPKSizeBytes(sys)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != want {
		t.Fatalf("RawPKSizeBytes = %d, actual encoding = %d", want, buf.Len())
	}

	// The streamed form of the key reports the resident form's size: the
	// wire encoding's, not the raw file's.
	spk := openStreamed(t, buf.Bytes(), 2)
	if spk.SizeBytes() != pk.SizeBytes() {
		t.Fatalf("StreamedProvingKey.SizeBytes = %d, ProvingKey.SizeBytes = %d", spk.SizeBytes(), pk.SizeBytes())
	}
	if spk.DomainSize() != pk.DomainSize {
		t.Fatalf("DomainSize = %d, want %d", spk.DomainSize(), pk.DomainSize)
	}
}

// TestProveStreamedMatchesProve is the bit-identity oracle at the
// groth16 layer: with the same prover randomness, the streamed prover
// must emit exactly the proof bytes of the in-memory prover, across
// chunk sizes that fragment the 5-point sections differently.
func TestProveStreamedMatchesProve(t *testing.T) {
	sys := cubicSystem()
	pk, vk, err := Setup(sys, rand.New(rand.NewSource(92)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	witness := cubicWitness(3)

	want, err := Prove(sys, pk, witness, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if _, err := want.WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 2, 3, 64} {
		spk := openStreamed(t, raw.Bytes(), chunk)
		got, err := Prove(sys, spk, witness, rand.New(rand.NewSource(93)))
		if err != nil {
			t.Fatalf("chunk=%d: streamed Prove: %v", chunk, err)
		}
		var gotBuf bytes.Buffer
		if _, err := got.WriteTo(&gotBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("chunk=%d: streamed proof bytes diverge from in-memory prover", chunk)
		}
		if err := Verify(vk, got, sys.PublicValues(witness)); err != nil {
			t.Fatalf("chunk=%d: streamed proof rejected: %v", chunk, err)
		}
	}
}

// TestOpenStreamedProvingKeyTruncated checks that a key file cut short
// anywhere — header, mid-section, or one byte shy of the end — is
// rejected at open time, not at prove time.
func TestOpenStreamedProvingKeyTruncated(t *testing.T) {
	sys := cubicSystem()
	pk, _, err := Setup(sys, rand.New(rand.NewSource(94)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	full := raw.Bytes()
	for _, cut := range []int{0, 3, 100, rawPKFixedHeaderSize, len(full) / 2, len(full) - 1} {
		if _, err := OpenStreamedProvingKey(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// TestStreamedCheckShape verifies the streamed key refuses a circuit it
// wasn't set up for, same as the in-memory key.
func TestStreamedCheckShape(t *testing.T) {
	sys := cubicSystem()
	pk, _, err := Setup(sys, rand.New(rand.NewSource(95)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	spk := openStreamed(t, raw.Bytes(), 2)

	// A cubic system with one extra private wire: wire counts no longer
	// match the key's section lengths.
	wider := r1cstest.Cubic(5)
	wider.NbWires++
	other := mustCSR(wider)
	witness := make([]fr.Element, other.NbWires)
	copy(witness, cubicWitness(3))
	witness[0].SetOne()
	if _, err := Prove(other, spk, witness, rand.New(rand.NewSource(96))); err == nil {
		t.Fatal("Prove accepted a streamed key with mismatched shape")
	}
}

// TestQuotientOOCMatchesQuotient pins the out-of-core quotient to the
// resident one bit for bit: the same row evaluations, reduced once in
// pooled vectors and once on disk through quarter-domain scratch, give the
// same h coefficients — on domains of even and odd log n, down to one
// whose scratch holds a single element.
func TestQuotientOOCMatchesQuotient(t *testing.T) {
	for _, nbCons := range []int{3, 60, 500, 1000, 2040} {
		f := newResidencyFixture(t, nbCons)
		w := &witnessSrc{mem: f.witness}
		mem, err := f.pk.evalRows(f.sys, w, obs.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		defer mem.release()
		disk, err := f.spk.evalRows(f.sys, w, obs.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.release()
		want, err := quotient(mem, obs.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		hf, err := quotientOOC(disk, obs.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]fr.Element, hf.Len()-1)
		if err := hf.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("domain %d: h[%d] out of core %s, resident %s", mem.domain.N, i, got[i].String(), want[i].String())
			}
		}
	}
}

// goldenRawKey returns the committed golden raw proving key's bytes.
func goldenRawKey(tb testing.TB) []byte {
	tb.Helper()
	dump, err := os.ReadFile(filepath.Join("testdata", "golden", "pk.raw.hex"))
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := hex.DecodeString(string(bytes.ReplaceAll(bytes.TrimSpace(dump), []byte("\n"), nil)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestRawKeyVersionGate holds OpenStreamedProvingKey to the raw key's
// one format version: the golden key with its version field set to 1
// (the canonical big-endian coordinates of older builds), 0 or 3 is
// refused with an error naming that version, never decoded.
func TestRawKeyVersionGate(t *testing.T) {
	raw := goldenRawKey(t)
	if _, err := OpenStreamedProvingKey(bytes.NewReader(raw)); err != nil {
		t.Fatalf("the golden raw key: %v", err)
	}
	for _, v := range []uint32{1, 0, 3} {
		old := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(old[4:8], v)
		_, err := OpenStreamedProvingKey(bytes.NewReader(old))
		if want := fmt.Sprintf("version %d ", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("raw key version %d: err %v, want one naming %q", v, err, want)
		}
	}
}

// FuzzStreamedProvingKey feeds raw proving-key bytes ("ZKPR") to the
// layout's one parser and both of its consumers: OpenStreamedProvingKey,
// then Load (the resident form) and one streamed MSM over every query
// section (the streamed form, three points a chunk so that sections span
// chunks). Every input is refused with an error or accepted, none panics,
// and none allocates more than its own length justifies: sections are
// bounded by bytes actually present, so decoded points, MSM scalars and
// buckets all scale with the input. The corpus starts from the committed
// golden raw key — whole, cut short, and with a count, a point and the
// magic damaged.
func FuzzStreamedProvingKey(f *testing.F) {
	raw := goldenRawKey(f)
	f.Add(raw)
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, rawPKFixedHeaderSize + 4, 5} {
		f.Add(raw[:cut])
	}
	for _, at := range []int{0, rawPKFixedHeaderSize, rawPKFixedHeaderSize + 4 + 10, len(raw) - 7} {
		bad := bytes.Clone(raw)
		bad[at] ^= 0x5a
		f.Add(bad)
	}
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		before := allocated()
		spk, err := OpenStreamedProvingKey(bytes.NewReader(b))
		if err != nil {
			return
		}
		spk.Chunk = 3
		pk, loadErr := spk.Load()
		if loadErr != nil && bytes.Equal(b, raw) {
			t.Fatalf("the golden key no longer loads: %v", loadErr)
		}
		scalars := func(n int) []fr.Element {
			s := make([]fr.Element, n)
			for i := range s {
				s[i].SetUint64(uint64(3*i + 1))
			}
			return s
		}
		// A key that loads has only good points, so its sections stream, to
		// the sums of the loaded sections.
		for i, sec := range []rawSection{spk.secA, spk.secB1, spk.secK, spk.secZ} {
			k := scalars(sec.n)
			got, err := curve.MultiExpG1StreamScalars(curve.NewG1RawSource(spk.r, sec.off), k, curve.StreamWindowSize(sec.n, spk.Chunk), spk.Chunk)
			if loadErr != nil {
				continue
			}
			if want := curve.MultiExpG1(*pk.g1Sections()[i], k); err != nil || !got.Equal(&want) {
				t.Fatalf("G1 section %d loads but streams to %v (error %v)", i, got, err)
			}
		}
		k := scalars(spk.secB2.n)
		w := &witnessSrc{mem: k}
		got, err := curve.MultiExpG2StreamScalarSource(curve.NewG2RawSource(spk.r, spk.secB2.off), w.source(0, obs.Scope{}), len(k), curve.StreamWindowSize(spk.secB2.n, spk.Chunk), spk.Chunk)
		if loadErr == nil {
			if want := curve.MultiExpG2(pk.B2, k); err != nil || !got.Equal(&want) {
				t.Fatalf("B2 loads but streams to %v (error %v)", got, err)
			}
		}
		// Decoded points, scalars and digits are a small multiple of the
		// bytes read; the buckets and pooled buffers of a 3-point chunk are a
		// constant.
		if grew, bound := allocated()-before, uint64(1<<20+16*len(b)); grew > bound {
			t.Fatalf("a %d-byte key allocated %d bytes (bound %d)", len(b), grew, bound)
		}
	})
}
