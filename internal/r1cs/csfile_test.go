package r1cs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/diskfile"
)

// randomCompiled builds a compiled system with nCons random constraints
// over nWires wires — irregular row lengths (including empty rows) so
// window boundaries land mid-matrix — and every wire an input.
func randomCompiled(t *testing.T, rng *rand.Rand, nCons, nWires int) *CompiledSystem {
	t.Helper()
	matrix := func() Matrix {
		ci := NewCoeffInterner()
		m := Matrix{RowOffs: make([]uint32, 1, nCons+1)}
		for i := 0; i < nCons; i++ {
			for n := rng.Intn(5); n > 0; n-- { // empty rows allowed
				m.Wires = append(m.Wires, uint32(rng.Intn(nWires)))
				m.CoeffIdx = append(m.CoeffIdx, ci.Intern(frU(rng.Uint64()%97+1)))
			}
			m.RowOffs = append(m.RowOffs, uint32(len(m.Wires)))
		}
		m.Dict = ci.Dict()
		return m
	}
	cs := &CompiledSystem{
		A: matrix(), B: matrix(), C: matrix(),
		NbPublic:      2,
		NbWires:       nWires,
		PublicNames:   []string{"one", "out"},
		PubInputs:     []uint32{1},
		PubInputNames: []string{"out"},
	}
	for w := cs.NbPublic; w < nWires; w++ {
		cs.SecretInputs = append(cs.SecretInputs, uint32(w))
	}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestCompiledSystemFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cs := randomCompiled(t, rng, 300, 64)
	path := filepath.Join(t.TempDir(), "sys.csr")
	if err := WriteCompiledSystemFile(path, cs); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Size(), CSRRawSizeBytes(cs); got != want {
		t.Fatalf("file is %d bytes, CSRRawSizeBytes predicts %d", got, want)
	}

	cf, err := OpenCompiledSystemFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if cf.Dims() != cs.Dims() {
		t.Fatalf("dims mismatch: %+v vs %+v", cf.Dims(), cs.Dims())
	}
	if cf.DigestHex() != cs.DigestHex() {
		t.Fatal("digest mismatch after round trip")
	}

	// Every row of every matrix, streamed through deliberately tiny
	// windows, must evaluate identically to the resident CSR.
	w := make([]fr.Element, cs.NbWires)
	for i := range w {
		w[i].SetUint64(rng.Uint64())
	}
	w[0].SetOne()
	pairs := []struct {
		name string
		mem  *Matrix
		disk MatrixStream
	}{
		{"A", &cs.A, cf.MatA()},
		{"B", &cs.B, cf.MatB()},
		{"C", &cs.C, cf.MatC()},
	}
	for _, p := range pairs {
		if got, want := p.disk.NbRows(), p.mem.NbRows(); got != want {
			t.Fatalf("%s: NbRows %d != %d", p.name, got, want)
		}
		win := &RowWindow{}
		for start := 0; start < p.mem.NbRows(); {
			end := p.disk.EndRowForTerms(start, 7)
			if memEnd := p.mem.EndRowForTerms(start, 7); memEnd != end {
				t.Fatalf("%s: window plan diverges at row %d: disk %d, mem %d", p.name, start, end, memEnd)
			}
			if err := p.disk.LoadRows(win, start, end); err != nil {
				t.Fatalf("%s: LoadRows(%d,%d): %v", p.name, start, end, err)
			}
			for i := 0; i < end-start; i++ {
				got := win.RowEval(i, w)
				want := p.mem.RowEval(start+i, w)
				if !got.Equal(&want) {
					t.Fatalf("%s: row %d evaluates differently from disk", p.name, start+i)
				}
			}
			start = end
		}
	}
}

// csrPayload writes cs to path and returns the file's payload (the bytes
// behind the 16-byte frame).
func csrPayload(t *testing.T, path string, cs *CompiledSystem) []byte {
	t.Helper()
	if err := WriteCompiledSystemFile(path, cs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw[csFrameSize:]
}

// reframe publishes payload at path under a valid frame: damage the CRC
// cannot see, so the section-level checks have to.
func reframe(t *testing.T, path string, payload []byte) {
	t.Helper()
	if _, err := diskfile.WriteFramed(path, csFileMagic, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCompiledSystemFileTruncated: a file cut short is rejected at
// open with ErrBadCSRFile — by the frame when the cut is visible to it
// (the full frame table lives in internal/diskfile), and by the section
// parser's own cursor when a shortened payload arrives correctly framed.
func TestOpenCompiledSystemFileTruncated(t *testing.T) {
	cs := randomCompiled(t, rand.New(rand.NewSource(7)), 50, 32)
	path := filepath.Join(t.TempDir(), "sys.csr")
	payload := csrPayload(t, path, cs)

	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCompiledSystemFile(path); !errors.Is(err, ErrBadCSRFile) || !errors.Is(err, diskfile.ErrBadFrame) {
		t.Fatalf("file cut in half: got %v, want ErrBadCSRFile wrapping the frame failure", err)
	}

	aDict := csFileFixedHdr + csFileMatrixHdr // matrix A's dictionary starts here
	aOffs := aDict + len(cs.A.Dict)*csFileElemSize
	aWires := aOffs + 4*len(cs.A.RowOffs)
	for _, tc := range []struct {
		name string
		keep int
	}{
		{"empty payload", 0},
		{"inside the dimensions", 10},
		{"inside the digest", 30},
		{"inside A's section header", csFileFixedHdr + 4},
		{"inside A's dictionary", aDict + csFileElemSize/2},
		{"inside A's row offsets", aOffs + 6},
		{"inside A's term arrays", aWires + 4},
		{"before C's term arrays end", len(payload) - 4},
		{"one byte short", len(payload) - 1},
	} {
		reframe(t, path, payload[:tc.keep])
		if _, err := OpenCompiledSystemFile(path); !errors.Is(err, ErrBadCSRFile) {
			t.Errorf("payload cut %s (%d of %d bytes): got %v, want ErrBadCSRFile", tc.name, tc.keep, len(payload), err)
		}
	}
	reframe(t, path, payload)
	cf, err := OpenCompiledSystemFile(path)
	if err != nil {
		t.Fatalf("whole payload, reframed: %v", err)
	}
	cf.Close()
}

// TestOpenCompiledSystemFileCorrupt: a flipped byte is caught by the
// frame's CRC before any section is trusted; a payload that is wrong but
// correctly framed — dimensions, section sizes, row offsets, bytes the
// sections do not account for — is caught by the structural checks. Both
// surface as ErrBadCSRFile.
func TestOpenCompiledSystemFileCorrupt(t *testing.T) {
	cs := randomCompiled(t, rand.New(rand.NewSource(9)), 50, 32)
	path := filepath.Join(t.TempDir(), "sys.csr")
	payload := csrPayload(t, path, cs)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCompiledSystemFile(path); !errors.Is(err, ErrBadCSRFile) || !errors.Is(err, diskfile.ErrBadFrame) {
		t.Fatalf("flipped payload byte: got %v, want ErrBadCSRFile wrapping the frame failure", err)
	}

	const (
		version, nbPublic, nbWires, nbCons = 0, 4, 8, 12 // u32 offsets in the payload
		aDictLen, aNbTerms                 = csFileFixedHdr, csFileFixedHdr + 4
	)
	aOffs := csFileFixedHdr + csFileMatrixHdr + len(cs.A.Dict)*csFileElemSize
	setU32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"unknown version", setU32(version, csFileVersion+1)},
		{"no constant wire", setU32(nbPublic, 0)},
		{"fewer wires than public inputs", setU32(nbWires, 1)},
		{"more constraints than the payload could index", setU32(nbCons, 1<<31-1)},
		{"one constraint too many", setU32(nbCons, uint32(cs.NbConstraints()+1))},
		{"dictionary larger than the payload", setU32(aDictLen, 1<<30)},
		{"dictionary one entry short", setU32(aDictLen, uint32(len(cs.A.Dict)-1))},
		{"term count larger than the payload", setU32(aNbTerms, 1<<30)},
		{"term count disagrees with the row offsets", setU32(aNbTerms, uint32(len(cs.A.Wires)+1))},
		{"row offsets do not start at zero", setU32(aOffs, 1)},
		{"row offsets not monotone", setU32(aOffs+4*10, cs.A.RowOffs[len(cs.A.RowOffs)-1]+1)},
		{"bytes after the last section", func(b []byte) []byte { return append(b, 0) }},
	} {
		reframe(t, path, tc.mutate(bytes.Clone(payload)))
		if _, err := OpenCompiledSystemFile(path); !errors.Is(err, ErrBadCSRFile) {
			t.Errorf("%s: got %v, want ErrBadCSRFile", tc.name, err)
		}
	}
}
