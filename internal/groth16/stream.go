package groth16

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// Out-of-core proving: at paper scale the proving key dominates memory
// (three G1 points and one G2 point per wire, plus the Z query), while
// everything else the prover touches — witness, recoded digits, FFT
// vectors — is a few dozen bytes per wire. The streamed backend leaves
// the key in its raw uncompressed file (the WriteRawTo layout) and walks
// each query section once per proof through a bounded double-buffered
// point window, so peak prover memory is independent of key size.
//
// Raw layout (all integers little-endian), as written by rawKeyWriter
// for WriteRawTo and SetupStreamed:
//
//	offset 0    magic "ZKPR" (4) · version uint32 (4) · DomainSize uint64 (8)
//	offset 16   AlphaG1, BetaG1, DeltaG1   3 × 64 B uncompressed G1
//	offset 208  BetaG2, DeltaG2            2 × 128 B uncompressed G2
//	offset 464  section A   uint32 count · count × 64 B
//	            section B1  uint32 count · count × 64 B
//	            section K   uint32 count · count × 64 B
//	            section Z   uint32 count · count × 64 B
//	            section B2  uint32 count · count × 128 B
const rawPKFixedHeaderSize = 16 + 3*curve.G1UncompressedSize + 2*curve.G2UncompressedSize

// RawPKSizeBytes returns the size of the raw uncompressed proving-key
// encoding (WriteRawTo / SetupStreamed output) for the given system
// without materializing the key — the quantity a memory budget is
// compared against when deciding whether to stream.
func RawPKSizeBytes(sys r1cs.Constraints) (int64, error) {
	d := sys.Dims()
	nbCons := d.NbConstraints
	if nbCons == 0 {
		return 0, errors.New("groth16: empty constraint system")
	}
	domain, err := poly.NewDomain(uint64(nbCons))
	if err != nil {
		return 0, err
	}
	m := int64(d.NbWires)
	ell := int64(d.NbPublic)
	n := int64(domain.N)
	g1Points := m + m + (m - ell) + (n - 1) // A + B1 + K + Z
	return rawPKFixedHeaderSize + 5*4 +
		g1Points*curve.G1UncompressedSize +
		m*curve.G2UncompressedSize, nil
}

// rawSection locates one query section inside the raw key file: the
// byte offset of its first point (past the uint32 count) and the point
// count.
type rawSection struct {
	off int64
	n   int
}

// StreamedProvingKey is a proving key that stays on disk: it holds the
// handful of header points in memory plus the offsets of the five query
// sections in an io.ReaderAt over the raw encoding. It implements the
// ProverKey interface as ProvingKey, so Prove yields byte-identical
// proofs while reading each section once per proof through a bounded
// window.
//
// The ReaderAt must serve overlapping lifetimes: a StreamedProvingKey
// may be shared across goroutines (ReaderAt is required to be safe for
// concurrent use), but each individual MSM streams its section through
// a private buffer.
type StreamedProvingKey struct {
	r   io.ReaderAt
	hdr pkHeader

	secA, secB1, secK, secZ, secB2 rawSection

	// Chunk is the number of points per streamed window (0 means
	// curve.DefaultStreamChunk). Peak per-MSM point memory is twice
	// this (double buffering) plus one chunk of decoded affine points.
	Chunk int

	// SpillDir is where the out-of-core quotient pipeline writes its
	// short-lived intermediate vectors (empty means the system temp
	// directory). Callers that already manage a scratch directory for
	// spilled keys (the prover engine) point this at it.
	SpillDir string
}

// OpenStreamedProvingKey indexes a raw proving key (the WriteRawTo
// layout) served by r without loading its query sections: it decodes
// the fixed header points and records each section's offset. Section
// point data is validated lazily, chunk by chunk, as proofs stream it.
func OpenStreamedProvingKey(r io.ReaderAt) (*StreamedProvingKey, error) {
	head := make([]byte, rawPKFixedHeaderSize)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("groth16: raw key header: %w", err)
	}
	if [4]byte(head[0:4]) != magicPKRaw {
		return nil, fmt.Errorf("groth16: bad magic %q", head[0:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != formatVersion {
		return nil, fmt.Errorf("groth16: unsupported format version %d", v)
	}
	pk := &StreamedProvingKey{r: r}
	pk.hdr.DomainSize = binary.LittleEndian.Uint64(head[8:16])
	cur := 16
	for _, pt := range []*curve.G1Affine{&pk.hdr.AlphaG1, &pk.hdr.BetaG1, &pk.hdr.DeltaG1} {
		if err := pt.SetBytesRaw(head[cur : cur+curve.G1UncompressedSize]); err != nil {
			return nil, fmt.Errorf("groth16: raw key header point: %w", err)
		}
		cur += curve.G1UncompressedSize
	}
	for _, pt := range []*curve.G2Affine{&pk.hdr.BetaG2, &pk.hdr.DeltaG2} {
		if err := pt.SetBytesRaw(head[cur : cur+curve.G2UncompressedSize]); err != nil {
			return nil, fmt.Errorf("groth16: raw key header point: %w", err)
		}
		cur += curve.G2UncompressedSize
	}

	off := int64(rawPKFixedHeaderSize)
	section := func(sec *rawSection, pointSize int64) error {
		var cnt [4]byte
		if _, err := r.ReadAt(cnt[:], off); err != nil {
			return fmt.Errorf("groth16: raw key section count at %d: %w", off, err)
		}
		n := binary.LittleEndian.Uint32(cnt[:])
		if n > 1<<28 {
			return errors.New("groth16: implausible raw section length")
		}
		sec.off = off + 4
		sec.n = int(n)
		off = sec.off + int64(n)*pointSize
		return nil
	}
	for _, sec := range []*rawSection{&pk.secA, &pk.secB1, &pk.secK, &pk.secZ} {
		if err := section(sec, curve.G1UncompressedSize); err != nil {
			return nil, err
		}
	}
	if err := section(&pk.secB2, curve.G2UncompressedSize); err != nil {
		return nil, err
	}
	// Probe the final byte so a file truncated mid-section surfaces at
	// open time rather than mid-proof.
	if off > int64(rawPKFixedHeaderSize) {
		var b [1]byte
		if _, err := r.ReadAt(b[:], off-1); err != nil {
			return nil, fmt.Errorf("groth16: raw key truncated (want %d bytes): %w", off, err)
		}
	}
	return pk, nil
}

// DomainSize returns the FFT domain order recorded in the key.
func (pk *StreamedProvingKey) DomainSize() uint64 { return pk.hdr.DomainSize }

// SizeBytes returns what ProvingKey.SizeBytes does for the same key: its
// compressed size, not that of the raw file behind it (that is
// RawPKSizeBytes).
func (pk *StreamedProvingKey) SizeBytes() int64 {
	return pkCompressedSize(pk.secA.n+pk.secB1.n+pk.secK.n+pk.secZ.n, pk.secB2.n)
}

// Load materializes the indexed key: the resident form of the same raw
// file, decoded a stream chunk at a time. The index has already bounded
// every section by bytes actually present (the count cap and last-byte
// probe of OpenStreamedProvingKey), so a hostile count sizes no
// allocation. Points are checked on-curve but G2 subgroup membership is
// NOT verified — the raw format is for locally trusted material only.
func (pk *StreamedProvingKey) Load() (*ProvingKey, error) {
	h := pk.hdr
	out := &ProvingKey{
		AlphaG1: h.AlphaG1, BetaG1: h.BetaG1, DeltaG1: h.DeltaG1,
		BetaG2: h.BetaG2, DeltaG2: h.DeltaG2, DomainSize: h.DomainSize,
	}
	for i, sec := range []rawSection{pk.secA, pk.secB1, pk.secK, pk.secZ} {
		pts := make([]curve.G1Affine, sec.n)
		if err := loadSection(pts, curve.NewG1RawSource(pk.r, sec.off), pk.chunkSize()); err != nil {
			return nil, err
		}
		*out.g1Sections()[i] = pts
	}
	out.B2 = make([]curve.G2Affine, pk.secB2.n)
	if err := loadSection(out.B2, curve.NewG2RawSource(pk.r, pk.secB2.off), pk.chunkSize()); err != nil {
		return nil, err
	}
	return out, nil
}

func loadSection[P any](pts []P, src func(dst []P, start int) error, chunk int) error {
	for start := 0; start < len(pts); start += chunk {
		if err := src(pts[start:min(start+chunk, len(pts))], start); err != nil {
			return fmt.Errorf("groth16: raw key section at point %d: %w", start, err)
		}
	}
	return nil
}

func (pk *StreamedProvingKey) chunkSize() int {
	if pk.Chunk > 0 {
		return pk.Chunk
	}
	return curve.DefaultStreamChunk
}

func (pk *StreamedProvingKey) header() pkHeader { return pk.hdr }

func (pk *StreamedProvingKey) checkShape(d r1cs.Dims) error {
	m := d.NbWires
	if pk.secA.n != m || pk.secB1.n != m || pk.secB2.n != m {
		return fmt.Errorf("groth16: streamed key wire sections sized %d/%d/%d, system has %d wires",
			pk.secA.n, pk.secB1.n, pk.secB2.n, m)
	}
	if pk.secK.n != m-d.NbPublic {
		return fmt.Errorf("groth16: streamed key K section sized %d, system has %d private wires",
			pk.secK.n, m-d.NbPublic)
	}
	if pk.secZ.n != int(pk.hdr.DomainSize)-1 {
		return fmt.Errorf("groth16: streamed key Z section sized %d, domain size %d expects %d",
			pk.secZ.n, pk.hdr.DomainSize, pk.hdr.DomainSize-1)
	}
	return nil
}

// evalRows walks the rows in bounded lockstep windows (a zero-copy view
// of a resident system, disk reads for a CSR file) and writes each
// window's evaluations to three disk vectors under SpillDir, so nothing
// domain-sized is resident. Both witness residencies work.
func (pk *StreamedProvingKey) evalRows(sys r1cs.Constraints, w *witnessSrc, sc obs.Scope) (*rowEvals, error) {
	ev, err := newRowEvals(pk.hdr.DomainSize, sys.Dims().NbConstraints)
	if err != nil {
		return nil, err
	}
	sp := sc.Sub("ooc/rows").Span()
	defer sp.End()
	// A fresh disk vector reads as zeros, which is what rows
	// [NbConstraints, n) must hold.
	for k := 0; k < len(ev.file) && err == nil; k++ {
		ev.file[k], err = poly.CreateVecFile(pk.SpillDir, int(pk.hdr.DomainSize))
	}
	if err == nil {
		scratch, _ := rowWindowPool.Get().(*[3][]fr.Element)
		if scratch == nil {
			scratch = new([3][]fr.Element)
		}
		defer rowWindowPool.Put(scratch)
		err = walkRows(sys, w, r1cs.DefaultRowWindowTerms, streamRowBlock, sc.Sub("csr/row-window"),
			func(_, rows int) (a, b, c []fr.Element) {
				if cap(scratch[0]) < rows {
					for k := range scratch {
						scratch[k] = make([]fr.Element, rows)
					}
				}
				return scratch[0][:rows], scratch[1][:rows], scratch[2][:rows]
			},
			func(start int, a, b, c []fr.Element) error {
				for k, v := range [3][]fr.Element{a, b, c} {
					if err := ev.file[k].WriteAt(v, start); err != nil {
						return err
					}
				}
				return nil
			})
	}
	if err != nil {
		ev.release()
		return nil, err
	}
	return ev, nil
}

// streamRowBlock is how many rows the streamed row walk evaluates
// between two writes to its disk vectors: 3 × 256 KiB of evaluations
// resident, whatever the size of a CSR row window.
const streamRowBlock = 1 << 13

// rowWindowPool recycles the streamed row walk's three evaluation vectors
// (*[3][]fr.Element, streamRowBlock elements each) across proofs.
var rowWindowPool sync.Pool

// prepWitness leaves the shared decomposition nil: the streamed MSMs
// recode each chunk's scalars on the fly, so digit memory stays bounded
// by the chunk size instead of scaling with the wire count. A spilled
// witness streams through the scalar-source path below.
func (pk *StreamedProvingKey) prepWitness(w *witnessSrc) witnessExp {
	return witnessExp{src: w}
}

// streamG1 runs one G1 query section through the chunked MSM with lazy
// per-chunk scalar recoding, streaming the scalars from the spill file
// when the witness is not resident. off is the first wire the section
// covers (NbPublic for the K query, 0 otherwise); n is the section's
// scalar count; sc is the prove's scope, name the section's span name.
func (pk *StreamedProvingKey) streamG1(sec rawSection, w witnessExp, off, n int, sc obs.Scope, name string) (curve.G1Jac, error) {
	c := curve.StreamWindowSize(n, pk.chunkSize())
	src := curve.NewG1RawSource(pk.r, sec.off)
	if w.src.mem != nil {
		return curve.MultiExpG1StreamScalars(src, w.src.mem[off:off+n], c, pk.chunkSize(), sc.Sub(name))
	}
	return curve.MultiExpG1StreamScalarSource(src, w.src.source(off, sc), n, c, pk.chunkSize(), sc.Sub(name))
}

func (pk *StreamedProvingKey) expA(w witnessExp, sc obs.Scope) (curve.G1Jac, error) {
	return pk.streamG1(pk.secA, w, 0, w.src.len(), sc, "stream/A")
}

func (pk *StreamedProvingKey) expB1(w witnessExp, sc obs.Scope) (curve.G1Jac, error) {
	return pk.streamG1(pk.secB1, w, 0, w.src.len(), sc, "stream/B1")
}

func (pk *StreamedProvingKey) expB2(w witnessExp, sc obs.Scope) (curve.G2Jac, error) {
	n := w.src.len()
	c := curve.StreamWindowSize(n, pk.chunkSize())
	src := curve.NewG2RawSource(pk.r, pk.secB2.off)
	if w.src.mem != nil {
		return curve.MultiExpG2StreamScalars(src, w.src.mem, c, pk.chunkSize(), sc.Sub("stream/B2"))
	}
	return curve.MultiExpG2StreamScalarSource(src, w.src.source(0, sc), n, c, pk.chunkSize(), sc.Sub("stream/B2"))
}

func (pk *StreamedProvingKey) expK(w witnessExp, nbPublic int, sc obs.Scope) (curve.G1Jac, error) {
	return pk.streamG1(pk.secK, w, nbPublic, w.src.len()-nbPublic, sc, "stream/K")
}

// expZQuotient runs the fully out-of-core quotient lane: the quotient
// pipeline leaves h in a disk file (bounded-memory FFTs, a quarter of a
// domain vector resident), and the Z-section MSM streams both its points
// (from the raw key) and its scalars (from the h file) in bounded
// chunks. h never exists in memory.
func (pk *StreamedProvingKey) expZQuotient(ev *rowEvals, sc obs.Scope) (curve.G1Jac, error) {
	hf, err := quotientOOC(ev, sc)
	if err != nil {
		return curve.G1Jac{}, err
	}
	nScalars := hf.Len() - 1 // deg h ≤ n-2: the key's Z section has n-1 points
	c := curve.StreamWindowSize(nScalars, pk.chunkSize())
	return curve.MultiExpG1StreamScalarSource(
		curve.NewG1RawSource(pk.r, pk.secZ.off),
		func(dst []fr.Element, start int) error {
			if testHookHRead != nil {
				testHookHRead(hf, start)
			}
			return hf.ReadAt(dst, start)
		},
		nScalars, c, pk.chunkSize(), sc.Sub("stream/Z"))
}

// SetupStreamed runs trusted setup writing the proving key directly to
// w in the raw uncompressed layout (rawKeyWriter — exactly the bytes
// WriteRawTo produces for Setup's key from the same seeded rng) without
// ever holding a full query section of points in memory: setup's body
// multiplies curve.DefaultStreamChunk scalars at a time, bounding the
// resident slice of fresh points the same way the prover bounds its read
// window. Only the verifying key is returned in memory.
//
// The scalar side of setup (a few field elements per wire) still lives
// in RAM; it is the group elements, an order of magnitude larger, that
// are spilled. sys may be file-backed (see Setup), in which case the
// QAP accumulation streams the matrices too and nothing
// circuit-proportional beyond the scalar vectors is resident.
func SetupStreamed(sys r1cs.Constraints, rng io.Reader, w io.Writer) (*VerifyingKey, error) {
	return setup(sys, rng, curve.DefaultStreamChunk, rawKeyWriter{w})
}
