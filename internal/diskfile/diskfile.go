// Package diskfile is the only code under internal/ that creates a file
// some later run will trust: the engine's key cache, the spilled
// constraint-system file and the proof service's registry all publish
// through Write or WriteFramed.
//
// The contract is crash atomicity: at any instant the destination holds
// its previous content (or nothing) or the complete new content, never a
// torn file, and a name only becomes visible once its blocks are on the
// disk. Scratch files that no later run reads (poly.VecFile, the
// witness tape) do not come through here.
package diskfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with the bytes fn writes: temp file in the
// destination directory (created 0700 if missing) → fn → Flush → Sync →
// Close → Rename → fsync of the directory. The file is 0600: the key
// cache's files, a circuit's compiled system included, hold a watermark
// key. On any failure before the
// rename, or a panic in fn, the temp file is removed and whatever was at
// path is untouched; a failed directory sync leaves the new file in
// place and is still reported.
func Write(path string, fn func(io.Writer) error) error {
	return write(path, func(_ *os.File, bw *bufio.Writer) error { return fn(bw) })
}

func write(path string, body func(*os.File, *bufio.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	published := false
	defer func() {
		if !published {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := body(tmp, bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("diskfile: flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("diskfile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskfile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("diskfile: %w", err)
	}
	published = true
	// The rename is durable only once the directory entry is.
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("diskfile: sync directory: %w", err)
	}
	return nil
}

// Framed files carry a 16-byte integrity frame so truncation or
// corruption — a bit flip on a long-lived cache volume, a copy cut
// short — is detected at open time and degrades to a miss (re-run setup,
// rewrite the file) instead of feeding the prover garbage. Readers walk
// these files lazily over many proofs, so validating the whole file once
// at open is what lets every later read skip per-chunk verification.
//
//	offset 0   magic                   (4 bytes)
//	offset 4   payload length, uint64  (8 bytes, little-endian)
//	offset 12  CRC-32C of the payload  (4 bytes, little-endian)
//	offset 16  payload
const frameSize = 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame marks a file that failed frame validation at open; callers
// treat it as a miss.
var ErrBadFrame = errors.New("diskfile: file failed integrity check")

type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// WriteFramed is Write under the integrity frame. fn streams the payload
// without knowing its size — the header is patched in once the payload
// is complete, before the file is synced and published — and the payload
// byte count is returned.
func WriteFramed(path string, magic [4]byte, fn func(io.Writer) error) (payloadBytes int64, err error) {
	var n byteCounter
	err = write(path, func(f *os.File, bw *bufio.Writer) error {
		var hdr [frameSize]byte
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		crc := crc32.New(crcTable)
		if err := fn(io.MultiWriter(bw, crc, &n)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("diskfile: flush: %w", err)
		}
		copy(hdr[0:4], magic[:])
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(n))
		binary.LittleEndian.PutUint32(hdr[12:16], crc.Sum32())
		_, err := f.WriteAt(hdr[:], 0)
		return err
	})
	return int64(n), err
}

// OpenFramed opens a framed file and fully validates it — magic,
// recorded payload length against the on-disk size, and the payload CRC
// (one sequential pass). On success it returns the open file and a
// SectionReader over the payload; the caller owns the file's lifetime
// (the SectionReader reads through it). A validation failure wraps
// ErrBadFrame.
func OpenFramed(path string, magic [4]byte) (*os.File, *io.SectionReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	sr, err := validateFrame(f, magic)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, sr, nil
}

func validateFrame(f *os.File, magic [4]byte) (*io.SectionReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < frameSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the frame header", ErrBadFrame, st.Size())
	}
	var hdr [frameSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if [4]byte(hdr[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q, want %q", ErrBadFrame, hdr[0:4], magic[:])
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[4:12])
	if got := uint64(st.Size() - frameSize); payloadLen != got {
		return nil, fmt.Errorf("%w: header records %d payload bytes, file holds %d", ErrBadFrame, payloadLen, got)
	}
	crc := crc32.New(crcTable)
	if _, err := io.Copy(crc, io.NewSectionReader(f, frameSize, int64(payloadLen))); err != nil {
		return nil, err
	}
	if crc.Sum32() != binary.LittleEndian.Uint32(hdr[12:16]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadFrame)
	}
	return io.NewSectionReader(f, frameSize, int64(payloadLen)), nil
}
