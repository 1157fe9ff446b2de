package r1cs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/diskfile"
)

// Disk-resident constraint systems: a CompiledSystemFile is the CSR
// half of a CompiledSystem serialized section by section, so a prover
// can run setup and the prover's walk over the constraint rows (the
// satisfy check and the A·w, B·w, C·w evaluations in one pass) without
// the term arrays resident. Row offsets (4 bytes per
// constraint) and the coefficient dictionaries (a few hundred entries)
// stay in memory; the per-term wire and coefficient-index arrays — the
// dominant cost, 8 bytes per term across three matrices — are read in
// bounded row windows.
//
// The file is published through diskfile.WriteFramed: one atomic,
// fsynced write under the shared 16-byte integrity frame (magic · payload
// length · CRC-32C), fully validated at open. A truncated or bit-flipped
// file surfaces as an open error the caller degrades to a rewrite, and
// every later window read skips per-chunk verification.
//
// Payload layout (all integers little-endian):
//
//	u32 version
//	u32 nbPublic · u32 nbWires · u32 nbConstraints
//	digest (32 bytes, CompiledSystem.Digest)
//	3 × matrix section (A, B, C):
//	  u32 dictLen · u32 nbTerms
//	  dict        dictLen × 32 B   (raw little-endian limbs, Montgomery form)
//	  rowOffs     (nbConstraints+1) × u32
//	  wires       nbTerms × u32
//	  coeffIdx    nbTerms × u32
var csFileMagic = [4]byte{'Z', 'K', 'C', 'S'}

const (
	csFileVersion    = 1
	csFrameSize      = 16 // diskfile's frame, for the size arithmetic below
	csFileElemSize   = 8 * fr.Limbs
	csFileFixedHdr   = 4 + 3*4 + 32 // version + dims + digest
	csFileMatrixHdr  = 2 * 4        // dictLen + nbTerms
	csFileCopyBuffer = 1 << 20
)

// ErrBadCSRFile marks an integrity or format failure detected while
// opening a constraint-system file; callers treat it like a cache miss
// and rewrite the file from the resident system.
var ErrBadCSRFile = errors.New("r1cs: constraint-system file failed integrity check")

// CSRRawSizeBytes returns the on-disk size of WriteCompiledSystemFile's
// encoding (frame included) without writing it — the quantity a memory
// budget weighs when deciding whether the matrices should spill.
func CSRRawSizeBytes(cs *CompiledSystem) int64 {
	size := int64(csFrameSize + csFileFixedHdr)
	for _, m := range []*Matrix{&cs.A, &cs.B, &cs.C} {
		size += csFileMatrixHdr
		size += int64(len(m.Dict)) * csFileElemSize
		size += int64(len(m.RowOffs)) * 4
		size += int64(len(m.Wires)) * 8 // wires + coeffIdx
	}
	return size
}

// WriteCompiledSystemFile serializes cs's CSR matrices to path
// atomically and durably (diskfile.WriteFramed). The solver program is
// deliberately not included: it is input-dependent state the engine
// keeps resident (a few bytes per instruction), while the file replaces
// only the term arrays that dominate memory.
func WriteCompiledSystemFile(path string, cs *CompiledSystem) error {
	written, err := diskfile.WriteFramed(path, csFileMagic, func(w io.Writer) error {
		return writeCSRPayload(w, cs)
	})
	if err != nil {
		return fmt.Errorf("r1cs: write csr file: %w", err)
	}
	mCSRFilesWritten.Inc()
	mCSRBytesWritten.Add(uint64(written) + csFrameSize)
	return nil
}

func writeCSRPayload(w io.Writer, cs *CompiledSystem) error {
	put := func(b []byte) error {
		_, err := w.Write(b)
		return err
	}
	var u32 [4]byte
	putU32 := func(vs ...uint32) error {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(u32[:], v)
			if err := put(u32[:]); err != nil {
				return err
			}
		}
		return nil
	}
	putU32Slice := func(vs []uint32) error {
		buf := make([]byte, 4*(1<<15))
		for len(vs) > 0 {
			c := min(len(vs), 1<<15)
			for i := 0; i < c; i++ {
				binary.LittleEndian.PutUint32(buf[4*i:], vs[i])
			}
			if err := put(buf[:4*c]); err != nil {
				return err
			}
			vs = vs[c:]
		}
		return nil
	}
	if err := putU32(csFileVersion, uint32(cs.NbPublic), uint32(cs.NbWires), uint32(cs.NbConstraints())); err != nil {
		return err
	}
	digest := cs.Digest()
	if err := put(digest[:]); err != nil {
		return err
	}
	var elem [csFileElemSize]byte
	for _, m := range []*Matrix{&cs.A, &cs.B, &cs.C} {
		if err := putU32(uint32(len(m.Dict)), uint32(len(m.Wires))); err != nil {
			return err
		}
		for i := range m.Dict {
			for l := 0; l < fr.Limbs; l++ {
				binary.LittleEndian.PutUint64(elem[8*l:], m.Dict[i][l])
			}
			if err := put(elem[:]); err != nil {
				return err
			}
		}
		if err := putU32Slice(m.RowOffs); err != nil {
			return err
		}
		if err := putU32Slice(m.Wires); err != nil {
			return err
		}
		if err := putU32Slice(m.CoeffIdx); err != nil {
			return err
		}
	}
	return nil
}

// diskMatrix is the streaming view of one matrix section: resident row
// offsets and dictionary, term arrays read on demand.
type diskMatrix struct {
	r        io.ReaderAt // the file's payload
	nbWires  uint32
	rowOffs  []uint32
	dict     []fr.Element
	wiresOff int64 // payload offset of the wires array
	coeffOff int64 // payload offset of the coeffIdx array
}

// NbRows implements MatrixStream.
func (m *diskMatrix) NbRows() int { return len(m.rowOffs) - 1 }

// NbTerms implements MatrixStream.
func (m *diskMatrix) NbTerms() int { return int(m.rowOffs[len(m.rowOffs)-1]) }

// EndRowForTerms implements MatrixStream against the resident offsets.
func (m *diskMatrix) EndRowForTerms(start, maxTerms int) int {
	return endRowForTerms(m.rowOffs, start, maxTerms)
}

// LoadRows implements MatrixStream: two bounded preads (wires, then
// coefficient indices) decoded into the window's reused buffers.
// Concurrent LoadRows on distinct windows are safe — the scratch lives
// in the window and SectionReader.ReadAt is goroutine-safe.
func (m *diskMatrix) LoadRows(win *RowWindow, start, end int) error {
	lo, hi := m.rowOffs[start], m.rowOffs[end]
	nt := int(hi - lo)
	win.Start, win.Rows = start, end-start
	win.Offs = m.rowOffs[start : end+1]
	win.Dict = m.dict
	if cap(win.buf) < 4*nt {
		win.buf = make([]byte, 4*nt)
	}
	if cap(win.wireBuf) < nt {
		win.wireBuf = make([]uint32, nt)
	}
	if cap(win.coeffBuf) < nt {
		win.coeffBuf = make([]uint32, nt)
	}
	win.Wires, win.CoeffIdx = win.wireBuf[:nt], win.coeffBuf[:nt]
	buf := win.buf[:4*nt]
	// The term arrays are the one part of the file the open-time parse
	// skips over, so their indices are bounded here, where they are first
	// decoded: a window never hands out a term RowEval would fault on.
	read := func(off int64, dst []uint32, limit uint32, what string) error {
		if _, err := m.r.ReadAt(buf, off+4*int64(lo)); err != nil {
			return fmt.Errorf("r1cs: csr window read at row %d: %w", start, err)
		}
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(buf[4*i:])
			if dst[i] >= limit {
				return fmt.Errorf("%w: %s index %d out of range [0,%d) in the window at row %d", ErrBadCSRFile, what, dst[i], limit, start)
			}
		}
		return nil
	}
	if err := read(m.wiresOff, win.Wires, m.nbWires, "wire"); err != nil {
		return err
	}
	if err := read(m.coeffOff, win.CoeffIdx, uint32(len(m.dict)), "coefficient"); err != nil {
		return err
	}
	mCSRRowWindows.Inc()
	mCSRReadBytes.Add(uint64(8 * nt))
	return nil
}

// CompiledSystemFile is a disk-resident constraint system: it
// implements Constraints with row offsets and dictionaries in memory
// and term arrays streamed from the file in bounded windows. It is
// safe for concurrent use (windows carry all mutable state) and holds
// the file open until Close.
type CompiledSystemFile struct {
	f       *os.File
	dims    Dims
	digest  [32]byte
	a, b, c diskMatrix
}

// OpenCompiledSystemFile opens and fully validates path — the integrity
// frame (diskfile.OpenFramed: magic, recorded payload length, payload
// CRC in one sequential pass) and the structural invariants of every
// section header. Any integrity failure returns an error wrapping
// ErrBadCSRFile so callers can fall back to rewriting the file.
func OpenCompiledSystemFile(path string) (*CompiledSystemFile, error) {
	f, payload, err := diskfile.OpenFramed(path, csFileMagic)
	if err != nil {
		if errors.Is(err, diskfile.ErrBadFrame) {
			err = fmt.Errorf("%w: %w", ErrBadCSRFile, err)
		}
		return nil, err
	}
	cf, err := parseCompiledSystemFile(f, payload)
	if err != nil {
		f.Close()
		return nil, err
	}
	return cf, nil
}

func parseCompiledSystemFile(f *os.File, payload *io.SectionReader) (*CompiledSystemFile, error) {
	payloadLen := uint64(payload.Size())
	br := bufio.NewReaderSize(payload, csFileCopyBuffer)
	pos := int64(0) // payload cursor, tracked for the term-array offsets
	readFull := func(b []byte) error {
		if _, err := io.ReadFull(br, b); err != nil {
			return fmt.Errorf("%w: short payload: %v", ErrBadCSRFile, err)
		}
		pos += int64(len(b))
		return nil
	}
	var u32buf [4]byte
	readU32 := func() (uint32, error) {
		if err := readFull(u32buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32buf[:]), nil
	}

	cf := &CompiledSystemFile{f: f}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version != csFileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCSRFile, version)
	}
	var dims [3]uint32
	for i := range dims {
		if dims[i], err = readU32(); err != nil {
			return nil, err
		}
	}
	cf.dims = Dims{NbPublic: int(dims[0]), NbWires: int(dims[1]), NbConstraints: int(dims[2])}
	if cf.dims.NbPublic < 1 || cf.dims.NbWires < cf.dims.NbPublic || cf.dims.NbConstraints < 0 {
		return nil, fmt.Errorf("%w: implausible dimensions %+v", ErrBadCSRFile, cf.dims)
	}
	if err := readFull(cf.digest[:]); err != nil {
		return nil, err
	}

	for _, m := range []*diskMatrix{&cf.a, &cf.b, &cf.c} {
		m.r, m.nbWires = payload, dims[1]
		dictLen, err := readU32()
		if err != nil {
			return nil, err
		}
		nbTerms, err := readU32()
		if err != nil {
			return nil, err
		}
		if uint64(dictLen)*csFileElemSize > payloadLen || uint64(nbTerms)*8 > payloadLen || uint64(cf.dims.NbConstraints)*4 > payloadLen {
			return nil, fmt.Errorf("%w: implausible section sizes (dict %d, terms %d, rows %d)", ErrBadCSRFile, dictLen, nbTerms, cf.dims.NbConstraints)
		}
		m.dict = make([]fr.Element, dictLen)
		elems := make([]byte, csFileElemSize)
		for i := range m.dict {
			if err := readFull(elems); err != nil {
				return nil, err
			}
			for l := 0; l < fr.Limbs; l++ {
				m.dict[i][l] = binary.LittleEndian.Uint64(elems[8*l:])
			}
		}
		m.rowOffs = make([]uint32, cf.dims.NbConstraints+1)
		offBytes := make([]byte, 4*len(m.rowOffs))
		if err := readFull(offBytes); err != nil {
			return nil, err
		}
		for i := range m.rowOffs {
			m.rowOffs[i] = binary.LittleEndian.Uint32(offBytes[4*i:])
			if i > 0 && m.rowOffs[i] < m.rowOffs[i-1] {
				return nil, fmt.Errorf("%w: row offsets not monotone at row %d", ErrBadCSRFile, i)
			}
		}
		if m.rowOffs[0] != 0 || m.rowOffs[len(m.rowOffs)-1] != nbTerms {
			return nil, fmt.Errorf("%w: row offsets cover %d terms, section records %d", ErrBadCSRFile, m.rowOffs[len(m.rowOffs)-1], nbTerms)
		}
		// Term arrays stay on disk: record their offsets in the payload
		// and skip past them in the buffered reader.
		m.wiresOff = pos
		m.coeffOff = m.wiresOff + 4*int64(nbTerms)
		skip := 8 * int64(nbTerms)
		if _, err := br.Discard(int(skip)); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrBadCSRFile, err)
		}
		pos += skip
	}
	if pos != int64(payloadLen) {
		return nil, fmt.Errorf("%w: payload holds %d bytes, sections cover %d", ErrBadCSRFile, payloadLen, pos)
	}
	return cf, nil
}

// Close releases the underlying file (the file itself is kept — it is
// a cache artifact owned by the caller's directory layout).
func (cf *CompiledSystemFile) Close() error { return cf.f.Close() }

// Dims implements Constraints.
func (cf *CompiledSystemFile) Dims() Dims { return cf.dims }

// Digest returns the structural digest recorded at write time — the
// same value CompiledSystem.Digest computes, so file-backed and
// resident systems share cache keys.
func (cf *CompiledSystemFile) Digest() [32]byte { return cf.digest }

// DigestHex returns Digest as a lowercase hex string.
func (cf *CompiledSystemFile) DigestHex() string {
	return fmt.Sprintf("%x", cf.digest)
}

// MatA implements Constraints (likewise MatB, MatC).
func (cf *CompiledSystemFile) MatA() MatrixStream { return &cf.a }

// MatB returns the streaming view of matrix B.
func (cf *CompiledSystemFile) MatB() MatrixStream { return &cf.b }

// MatC returns the streaming view of matrix C.
func (cf *CompiledSystemFile) MatC() MatrixStream { return &cf.c }
