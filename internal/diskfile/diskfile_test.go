package diskfile

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"
)

var (
	keyMagic = [4]byte{'Z', 'K', 'F', '1'} // the engine's key cache
	csrMagic = [4]byte{'Z', 'K', 'C', 'S'} // r1cs section files
)

// dirEntries lists dir, failing the test on any leftover temp file.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
		names = append(names, e.Name())
	}
	return names
}

func payload(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestFailedWriteLeavesNothing is the crash-atomicity contract from the
// caller's side: whatever stops a write — the payload function failing
// or panicking halfway, the rename being refused, the directory not
// taking new files — the destination is absent, or byte-identical to
// what it held before, and no temp file survives.
func TestFailedWriteLeavesNothing(t *testing.T) {
	errBoom := errors.New("boom")
	failing := func(w io.Writer) error {
		// Past the 1 MiB buffer, so bytes have reached the temp file.
		if _, err := w.Write(make([]byte, 3<<20)); err != nil {
			return err
		}
		return errBoom
	}
	panicking := func(w io.Writer) error {
		io.WriteString(w, "half a key")
		panic("boom")
	}
	// attempt runs one write, reporting instead of propagating a panic.
	attempt := func(path string, framed bool, fn func(io.Writer) error) (panicked any, err error) {
		defer func() { panicked = recover() }()
		if framed {
			_, err = WriteFramed(path, keyMagic, fn)
		} else {
			err = Write(path, fn)
		}
		return nil, err
	}
	for _, previous := range []string{"", "previous content"} {
		for _, framed := range []bool{false, true} {
			for _, fn := range []func(io.Writer) error{failing, panicking} {
				dir := t.TempDir()
				path := filepath.Join(dir, "key.pk")
				if previous != "" {
					if err := os.WriteFile(path, []byte(previous), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if panicked, err := attempt(path, framed, fn); !errors.Is(err, errBoom) && panicked != "boom" {
					t.Errorf("framed=%v: got error %v, panic %v; want the payload function's own failure", framed, err, panicked)
				}
				got, err := os.ReadFile(path)
				if previous == "" && !errors.Is(err, os.ErrNotExist) {
					t.Errorf("framed=%v: destination exists after a failed write (%d bytes)", framed, len(got))
				}
				if previous != "" && string(got) != previous {
					t.Errorf("framed=%v: previous content replaced by %q", framed, got)
				}
				dirEntries(t, dir)
			}
		}
	}

	t.Run("rename refused", func(t *testing.T) {
		// A non-empty directory squatting on the destination: everything
		// up to and including the fsync succeeds, the rename cannot.
		dir := t.TempDir()
		path := filepath.Join(dir, "key.pk")
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, payload("new")); err == nil {
			t.Fatal("Write over a directory succeeded")
		}
		if got := dirEntries(t, dir); len(got) != 1 || got[0] != "key.pk" {
			t.Fatalf("directory holds %v, want only the squatter", got)
		}
	})

	t.Run("read-only directory", func(t *testing.T) {
		if os.Getuid() == 0 {
			t.Skip("root ignores directory permissions")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "key.pk")
		if err := os.WriteFile(path, []byte("previous content"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
		if err := Write(path, payload("new")); err == nil {
			t.Fatal("Write into a read-only directory succeeded")
		}
		if got, _ := os.ReadFile(path); string(got) != "previous content" {
			t.Fatalf("previous content replaced by %q", got)
		}
		dirEntries(t, dir)
	})

	t.Run("parent is a file", func(t *testing.T) {
		dir := t.TempDir()
		blocker := filepath.Join(dir, "not-a-dir")
		if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Write(filepath.Join(blocker, "key.pk"), payload("new")); err == nil {
			t.Fatal("Write under a regular file succeeded")
		}
		dirEntries(t, dir)
	})
}

// TestWriteReplacesWhole: a successful write over a longer existing file
// leaves exactly the new bytes, creates missing parent directories, and
// leaves no temp file.
func TestWriteReplacesWhole(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	path := filepath.Join(dir, "record.json")
	for _, content := range []string{strings.Repeat("old and long ", 1000), "new"} {
		if err := Write(path, payload(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("file holds %d bytes, want the %d just written", len(got), len(content))
		}
	}
	if got := dirEntries(t, dir); len(got) != 1 {
		t.Fatalf("directory holds %v, want one file", got)
	}
}

// TestFrameBytes pins the frame by its bytes, not by a round trip: caches
// and CSR files written by earlier versions must keep loading.
func TestFrameBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abc")
	n, err := WriteFramed(path, keyMagic, payload("abc"))
	if err != nil || n != 3 {
		t.Fatalf("WriteFramed = %d, %v; want 3 payload bytes", n, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// "ZKF1" · length 3 · CRC-32C("abc") = 0x364b3fb7 · "abc"
	want, _ := hex.DecodeString("5a4b4631" + "0300000000000000" + "b73f4b36" + "616263")
	if !bytes.Equal(got, want) {
		t.Fatalf("framed file is\n  %x\nwant\n  %x", got, want)
	}
	f, r, err := OpenFramed(path, keyMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if back, _ := io.ReadAll(r); string(back) != "abc" || r.Size() != 3 {
		t.Fatalf("payload reads back as %q (size %d)", back, r.Size())
	}
}

// TestOpenFramedRejectsCorruption is the one frame-corruption table, run
// over both magics in use: every way a framed file can be cut, grown,
// flipped or mistaken for the other format fails validation at open with
// ErrBadFrame, and the untouched file opens.
func TestOpenFramedRejectsCorruption(t *testing.T) {
	body := bytes.Repeat([]byte("constraint rows and curve points "), 300)
	for _, m := range []struct {
		magic, other [4]byte
	}{{keyMagic, csrMagic}, {csrMagic, keyMagic}} {
		path := filepath.Join(t.TempDir(), "file")
		if _, err := WriteFramed(path, m.magic, func(w io.Writer) error {
			_, err := w.Write(body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flip := func(off int, bit byte) func([]byte) []byte {
			return func(b []byte) []byte { b[off] ^= bit; return b }
		}
		for _, tc := range []struct {
			name   string
			mutate func([]byte) []byte
		}{
			{"empty", func(b []byte) []byte { return nil }},
			{"shorter than the header", func(b []byte) []byte { return b[:frameSize-1] }},
			{"header only", func(b []byte) []byte { return b[:frameSize] }},
			{"last byte cut", func(b []byte) []byte { return b[:len(b)-1] }},
			{"cut in half", func(b []byte) []byte { return b[:len(b)/2] }},
			{"one byte appended", func(b []byte) []byte { return append(b, 0) }},
			{"recorded length one short", func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[4:12], uint64(len(body)-1))
				return b
			}},
			{"recorded length one long", func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[4:12], uint64(len(body)+1))
				return b
			}},
			{"wrong magic", flip(0, 0xff)},
			{"the other format's magic", func(b []byte) []byte { copy(b, m.other[:]); return b }},
			{"payload bit flipped", flip(frameSize+len(body)/2, 0x40)},
			{"last payload bit flipped", flip(len(good)-1, 0x01)},
			{"CRC bit flipped", flip(12, 0x01)},
		} {
			if err := os.WriteFile(path, tc.mutate(bytes.Clone(good)), 0o644); err != nil {
				t.Fatal(err)
			}
			f, _, err := OpenFramed(path, m.magic)
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("magic %q, %s: got %v, want ErrBadFrame", m.magic[:], tc.name, err)
			}
			if f != nil {
				f.Close()
			}
		}
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		f, r, err := OpenFramed(path, m.magic)
		if err != nil {
			t.Fatalf("magic %q: untouched file rejected: %v", m.magic[:], err)
		}
		if back, _ := io.ReadAll(r); !bytes.Equal(back, body) {
			t.Errorf("magic %q: payload does not read back", m.magic[:])
		}
		f.Close()
	}
	if _, _, err := OpenFramed(filepath.Join(t.TempDir(), "missing"), keyMagic); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want os.ErrNotExist", err)
	}
}

// FuzzOpenFramed feeds arbitrary file bytes to OpenFramed. Every input
// is refused with an error or accepted, none panics, and an accepted one
// is an exact round trip: its payload is the bytes after the frame
// header, and WriteFramed of that payload writes the input back byte for
// byte. Validation allocates no more than a constant plus the file's own
// size, so a header that claims a huge payload sizes nothing. The corpus
// starts from a WriteFramed output, whole, cut short at every field of
// the frame header and inside the payload, one byte too long, and with
// its magic, length, checksum and payload each damaged, and an empty
// payload's.
func FuzzOpenFramed(f *testing.F) {
	dir := f.TempDir()
	var whole []byte
	for _, body := range []string{"", strings.Repeat("payload bytes ", 20)} {
		path := filepath.Join(dir, "seed")
		if _, err := WriteFramed(path, keyMagic, payload(body)); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		whole = b
	}
	for _, cut := range []int{len(whole) - 1, frameSize + 1, frameSize, frameSize - 1, 12, 4, 0} {
		f.Add(whole[:cut])
	}
	f.Add(append(bytes.Clone(whole), 0))
	for _, at := range []int{0, 4, 12, frameSize + 3} {
		bad := bytes.Clone(whole)
		bad[at] ^= 0x20
		f.Add(bad)
	}
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		// The heap counter is the process's, and the fuzzing engine's own
		// goroutines allocate beside OpenFramed now and then: the least of
		// three opens is OpenFramed's.
		var file *os.File
		var sr *io.SectionReader
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			if file != nil {
				file.Close()
			}
			before := allocated()
			file, sr, err = OpenFramed(path, keyMagic)
			grew = min(grew, allocated()-before)
		}
		// os.Open, Stat and io.Copy's 32 KiB buffer are the constant.
		if bound := uint64(1<<16 + len(b)); grew > bound {
			t.Fatalf("a %d-byte file allocated %d bytes (bound %d)", len(b), grew, bound)
		}
		if err != nil {
			return
		}
		got, err := io.ReadAll(sr)
		file.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b[frameSize:]) {
			t.Fatalf("payload of %d bytes is not the file's %d after the frame", len(got), len(b)-frameSize)
		}
		again := filepath.Join(dir, "again")
		if _, err := WriteFramed(again, keyMagic, payload(string(got))); err != nil {
			t.Fatal(err)
		}
		if rewritten, err := os.ReadFile(again); err != nil || !bytes.Equal(rewritten, b) {
			t.Fatalf("re-framing the accepted payload gave different bytes (%v)", err)
		}
	})
}
