package groth16

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/par"
)

// Binary framing: a 4-byte magic, a format version, then length-prefixed
// compressed points. All integers are little-endian uint32.
var (
	magicProof = [4]byte{'Z', 'K', 'P', 'F'}
	magicPKRaw = [4]byte{'Z', 'K', 'P', 'R'}
	magicVK    = [4]byte{'Z', 'K', 'V', 'K'}
)

const formatVersion = 1

type countingWriter struct {
	n int64
	w io.Writer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader counts the bytes its readers consume.
type countingReader struct {
	n int64
	r io.Reader
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func writeHeader(w io.Writer, magic [4]byte) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint32(formatVersion))
}

func readHeader(r io.Reader, magic [4]byte) error {
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if got != magic {
		return fmt.Errorf("groth16: bad magic %q", got[:])
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return err
	}
	if ver != formatVersion {
		return fmt.Errorf("groth16: unsupported format version %d", ver)
	}
	return nil
}

func writeG1(w io.Writer, p *curve.G1Affine) error {
	b := p.Bytes()
	_, err := w.Write(b[:])
	return err
}

func readG1(r io.Reader, p *curve.G1Affine) error {
	var b [curve.G1CompressedSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	return p.SetBytes(b[:])
}

func writeG2(w io.Writer, p *curve.G2Affine) error {
	b := p.Bytes()
	_, err := w.Write(b[:])
	return err
}

func readG2(r io.Reader, p *curve.G2Affine) error {
	var b [curve.G2CompressedSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	return p.SetBytes(b[:])
}

func writeG1Slice(w io.Writer, ps []curve.G1Affine) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ps))); err != nil {
		return err
	}
	for i := range ps {
		if err := writeG1(w, &ps[i]); err != nil {
			return err
		}
	}
	return nil
}

// decodeChunk is the number of points read and decoded at a time: a few
// hundred kilobytes of encoding, enough to spread a chunk's square roots
// over the workers.
const decodeChunk = 4096

// readPoints decodes a length-prefixed run of size-byte point encodings.
// The length prefix is not trusted with memory: the result grows by
// doubling as chunks actually arrive, so a short stream behind a huge
// prefix costs one chunk, not prefix × point size. Each chunk is decoded
// in parallel (compressed points pay a square root each); the error of
// the earliest bad point is returned.
func readPoints[P any](r io.Reader, size int, set func(*P, []byte) error) ([]P, error) {
	var n32 uint32
	if err := binary.Read(r, binary.LittleEndian, &n32); err != nil {
		return nil, err
	}
	if n32 > 1<<28 {
		return nil, errors.New("groth16: implausible point slice length")
	}
	n := int(n32)
	buf := make([]byte, min(n, decodeChunk)*size)
	out := []P{}
	for len(out) < n {
		c := min(n-len(out), decodeChunk)
		if _, err := io.ReadFull(r, buf[:c*size]); err != nil {
			return nil, err
		}
		if len(out)+c > cap(out) {
			out = append(make([]P, 0, min(n, max(c, 2*cap(out)))), out...)
		}
		chunk := out[len(out) : len(out)+c]
		out = out[:len(out)+c]
		var mu sync.Mutex
		var firstErr error
		firstBad := c
		par.Range(c, func(start, end int) {
			for i := start; i < end; i++ {
				if err := set(&chunk[i], buf[i*size:(i+1)*size]); err != nil {
					mu.Lock()
					if i < firstBad {
						firstBad, firstErr = i, err
					}
					mu.Unlock()
					return
				}
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return out, nil
}

func readG1Slice(r io.Reader) ([]curve.G1Affine, error) {
	return readPoints(r, curve.G1CompressedSize, (*curve.G1Affine).SetBytes)
}

// proofEncodedSize is the size of a proof's binary encoding: the 8-byte
// header and 3 compressed points, 128 bytes of cryptographic material.
const proofEncodedSize = 8 + 2*curve.G1CompressedSize + curve.G2CompressedSize

// appendBinary appends the proof's binary encoding to dst.
func (p *Proof) appendBinary(dst []byte) []byte {
	ar, bs, krs := p.Ar.Bytes(), p.Bs.Bytes(), p.Krs.Bytes()
	dst = append(dst, magicProof[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, formatVersion)
	dst = append(dst, ar[:]...)
	dst = append(dst, bs[:]...)
	return append(dst, krs[:]...)
}

// WriteTo serializes the proof.
func (p *Proof) WriteTo(w io.Writer) (int64, error) {
	var buf [proofEncodedSize]byte
	n, err := w.Write(p.appendBinary(buf[:0]))
	return int64(n), err
}

// ReadFrom deserializes a proof, validating curve/subgroup membership of
// every point. It returns the bytes it consumed, on success and on error
// alike.
func (p *Proof) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	if err := readHeader(cr, magicProof); err != nil {
		return cr.n, err
	}
	if err := readG1(cr, &p.Ar); err != nil {
		return cr.n, err
	}
	if err := readG2(cr, &p.Bs); err != nil {
		return cr.n, err
	}
	if err := readG1(cr, &p.Krs); err != nil {
		return cr.n, err
	}
	return cr.n, nil
}

// PayloadSize returns the size of the cryptographic payload in bytes
// (excluding framing), i.e. the "proof size" a protocol would transmit.
func (p *Proof) PayloadSize() int {
	return 2*curve.G1CompressedSize + curve.G2CompressedSize
}

// WriteTo serializes the verifying key.
func (vk *VerifyingKey) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := writeHeader(cw, magicVK); err != nil {
		return cw.n, err
	}
	if err := writeG1(cw, &vk.AlphaG1); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &vk.BetaG2); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &vk.GammaG2); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &vk.DeltaG2); err != nil {
		return cw.n, err
	}
	if err := writeG1Slice(cw, vk.IC); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFrom deserializes a verifying key. It returns the bytes it
// consumed, on success and on error alike.
func (vk *VerifyingKey) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	if err := readHeader(cr, magicVK); err != nil {
		return cr.n, err
	}
	if err := readG1(cr, &vk.AlphaG1); err != nil {
		return cr.n, err
	}
	if err := readG2(cr, &vk.BetaG2); err != nil {
		return cr.n, err
	}
	if err := readG2(cr, &vk.GammaG2); err != nil {
		return cr.n, err
	}
	if err := readG2(cr, &vk.DeltaG2); err != nil {
		return cr.n, err
	}
	ic, err := readG1Slice(cr)
	if err != nil {
		return cr.n, err
	}
	vk.IC = ic
	// Re-derive the cached e(α, β) and line tables (they are not
	// serialized — the points are the authoritative material) so
	// deserialized keys verify on the fast path.
	vk.precompute()
	return cr.n, nil
}

// WriteRawTo serializes the proving key with uncompressed points, the
// one proving-key format: reading it back (OpenStreamedProvingKey, then
// Load for a resident key) skips the per-point square root of compressed
// decoding, and checks points on the curve but not G2 subgroup
// membership, so it is for locally trusted material — the prover
// engine's key cache and the CLI's -save-pk. The layout itself is
// rawKeyWriter's, shared with SetupStreamed.
func (pk *ProvingKey) WriteRawTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	rw := rawKeyWriter{cw}
	err := rw.header(pk.DomainSize, [3]curve.G1Affine{pk.AlphaG1, pk.BetaG1, pk.DeltaG1}, [2]curve.G2Affine{pk.BetaG2, pk.DeltaG2})
	for _, sec := range pk.g1Sections() {
		if err == nil {
			err = rw.section(len(*sec))
		}
		if err == nil {
			err = rw.g1(*sec)
		}
	}
	if err == nil {
		err = rw.section(len(pk.B2))
	}
	if err == nil {
		err = rw.g2(pk.B2)
	}
	return cw.n, err
}

// rawKeyWriter is the keySink that encodes: the one place the raw
// proving-key layout (stream.go) is written, whether the points come out
// of a running setup (SetupStreamed) or a resident key (WriteRawTo).
type rawKeyWriter struct{ w io.Writer }

func (rw rawKeyWriter) header(domainSize uint64, g1 [3]curve.G1Affine, g2 [2]curve.G2Affine) error {
	if err := writeHeader(rw.w, magicPKRaw); err != nil {
		return err
	}
	if err := binary.Write(rw.w, binary.LittleEndian, domainSize); err != nil {
		return err
	}
	if err := rw.g1(g1[:]); err != nil {
		return err
	}
	return rw.g2(g2[:])
}

func (rw rawKeyWriter) section(n int) error {
	return binary.Write(rw.w, binary.LittleEndian, uint32(n))
}

func (rw rawKeyWriter) g1(pts []curve.G1Affine) error {
	for i := range pts {
		b := pts[i].BytesRaw()
		if _, err := rw.w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func (rw rawKeyWriter) g2(pts []curve.G2Affine) error {
	for i := range pts {
		b := pts[i].BytesRaw()
		if _, err := rw.w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// SizeBytes returns Table I's PK column, from the section lengths alone:
// the key's points in compressed form, plus the framing a compressed
// encoding would carry.
func (pk *ProvingKey) SizeBytes() int64 {
	return pkCompressedSize(len(pk.A)+len(pk.B1)+len(pk.K)+len(pk.Z), len(pk.B2))
}

// pkCompressedSize is the compressed size of a proving key whose five
// query sections hold g1 and g2 points in all: the five setup points and
// the query points, 32 bytes a G1 point and 64 a G2 point, plus 36
// bytes of framing — an 8-byte header, the 8-byte domain size and five
// uint32 section counts.
func pkCompressedSize(g1, g2 int) int64 {
	return 16 + 5*4 +
		int64(3+g1)*curve.G1CompressedSize +
		int64(2+g2)*curve.G2CompressedSize
}

// SizeBytes returns the serialized size of the verifying key.
func (vk *VerifyingKey) SizeBytes() int64 {
	cw := &countingWriter{w: io.Discard}
	_, _ = vk.WriteTo(cw)
	return cw.n
}
