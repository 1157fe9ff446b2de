package poly

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
)

// vecToFile spills v into a fresh disk vector.
func vecToFile(t *testing.T, v []fr.Element) *VecFile {
	t.Helper()
	vf, err := CreateVecFile(t.TempDir(), len(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.WriteAt(v, 0); err != nil {
		t.Fatal(err)
	}
	return vf
}

// requireFileEquals checks the disk vector matches want bit for bit.
func requireFileEquals(t *testing.T, vf *VecFile, want []fr.Element) {
	t.Helper()
	got := make([]fr.Element, vf.Len())
	if err := vf.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: disk %s != memory %s", i, got[i].String(), want[i].String())
		}
	}
}

// TestVecFileRoundtrip checks random-offset writes and reads are exact.
func TestVecFileRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 1000
	v := randPoly(rng, n)
	vf := vecToFile(t, v)
	defer vf.Close()
	for _, span := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {137, 613}} {
		got := make([]fr.Element, span[1]-span[0])
		if err := vf.ReadAt(got, span[0]); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != v[span[0]+i] {
				t.Fatalf("span %v element %d mismatch", span, i)
			}
		}
	}
}

// TestVecFileLengthsAndOffsets round-trips vectors of 0 and 1 elements,
// one either side of a streaming window (vecIOChunk±1) and several
// windows plus a tail, at element offsets that fall on no window
// boundary, in a file with neighbours on both sides that the write must
// leave alone. A read that runs past the end of the file is an error.
func TestVecFileLengthsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, vecIOChunk - 1, vecIOChunk + 1, 3*vecIOChunk + 5} {
		for _, off := range []int{1, 13} {
			fill := randPoly(rng, 2*off+n)
			vf := vecToFile(t, fill)
			v := randPoly(rng, n)
			if err := vf.WriteAt(v, off); err != nil {
				t.Fatalf("n=%d off=%d: %v", n, off, err)
			}
			want := append(append(append([]fr.Element(nil), fill[:off]...), v...), fill[off+n:]...)
			requireFileEquals(t, vf, want)
			got := make([]fr.Element, n)
			if err := vf.ReadAt(got, off); err != nil {
				t.Fatalf("n=%d off=%d: %v", n, off, err)
			}
			for i := range got {
				if got[i] != v[i] {
					t.Fatalf("n=%d off=%d: element %d mismatch", n, off, i)
				}
			}
			if err := vf.ReadAt(make([]fr.Element, off+1), off+n); err == nil {
				t.Fatalf("n=%d off=%d: a read past the end of the file succeeded", n, off)
			}
			vf.Close()
		}
	}
}

// TestFFTFileMatchesMemory checks every out-of-core transform against
// its in-memory counterpart, element for element, across domain sizes
// (the n=1 and n=2 degenerate shapes, even and odd log n) and scratch
// budgets: at least the whole transform (in memory), then n/2, n/4 and
// n/8 (two, four and eight sub-transforms), and down to one element and
// none (sub-transforms of one point: the combine is the whole DFT).
func TestFFTFileMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []uint64{1, 2, 4, 8, 64, 1 << 10, 1 << 11} {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatal(err)
		}
		bufLens := []int{2 * int(n), int(n), int(n) / 2, int(n) / 4, int(n) / 8}
		if n <= 64 {
			// A scratch below √n reads the sub-vectors a few elements at a
			// time; affordable on small domains only.
			bufLens = append(bufLens, 3, 1, 0)
		}
		for _, bufLen := range bufLens {
			buf := make([]fr.Element, bufLen)
			type transform struct {
				name string
				mem  func(a []fr.Element)
				file func(vf *VecFile) error
			}
			for _, tr := range []transform{
				{"FFT", func(a []fr.Element) { d.FFT(a) }, func(vf *VecFile) error { return d.FFTFile(vf, buf) }},
				{"IFFT", func(a []fr.Element) { d.IFFT(a) }, func(vf *VecFile) error { return d.IFFTFile(vf, buf) }},
				{"FFTCoset", func(a []fr.Element) { d.FFTCoset(a) }, func(vf *VecFile) error { return d.FFTCosetFile(vf, buf) }},
				{"IFFTCoset", func(a []fr.Element) { d.IFFTCoset(a) }, func(vf *VecFile) error { return d.IFFTCosetFile(vf, buf) }},
			} {
				v := randPoly(rng, int(n))
				vf := vecToFile(t, v)
				if err := tr.file(vf); err != nil {
					t.Fatalf("n=%d buf=%d %s: %v", n, bufLen, tr.name, err)
				}
				tr.mem(v)
				requireFileEquals(t, vf, v)
				vf.Close()
			}
		}
	}
}

// TestFFTFileWrongLengthLeavesFileUntouched checks that every
// out-of-core transform rejects a vector that is not the domain's size
// before writing to it — FFTCosetFile used to scale the file by the
// coset powers first and report the length afterwards.
func TestFFTFileWrongLengthLeavesFileUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, err := NewDomain(64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]fr.Element, 16)
	for name, file := range map[string]func(*VecFile, []fr.Element, ...obs.Scope) error{
		"FFTFile": d.FFTFile, "IFFTFile": d.IFFTFile, "FFTCosetFile": d.FFTCosetFile, "IFFTCosetFile": d.IFFTCosetFile,
	} {
		v := randPoly(rng, 32)
		vf := vecToFile(t, v)
		if err := file(vf, buf); err == nil {
			t.Errorf("%s accepted a 32-element vector on a 64-point domain", name)
		}
		requireFileEquals(t, vf, v)
		vf.Close()
	}
}

// TestFFTFileFailureLeavesNoFile closes the vector between a four-step
// transform's split and its combine — its sub-vectors live in the second
// half of its own file — and checks every transform returns the error and
// leaves no file behind.
func TestFFTFileFailureLeavesNoFile(t *testing.T) {
	d, err := NewDomain(64)
	if err != nil {
		t.Fatal(err)
	}
	testHookSplit = func(vf *VecFile) { vf.Close() }
	defer func() { testHookSplit = nil }()
	buf := make([]fr.Element, 16)
	for name, file := range map[string]func(*VecFile, []fr.Element, ...obs.Scope) error{
		"FFTFile": d.FFTFile, "IFFTFile": d.IFFTFile, "FFTCosetFile": d.FFTCosetFile, "IFFTCosetFile": d.IFFTCosetFile,
	} {
		dir := t.TempDir()
		vf, err := CreateVecFile(dir, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := file(vf, buf); err == nil || !strings.Contains(err.Error(), "file already closed") {
			t.Errorf("%s: error %v, want the closed file's", name, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "zkrownn-vec-*")); len(left) > 0 {
			t.Errorf("%s left %v behind", name, left)
		}
	}
}

// TestStreamMerge checks the two-file pointwise fold.
func TestStreamMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := (1 << 15) + 3
	a, b := randPoly(rng, n), randPoly(rng, n)
	va, vb := vecToFile(t, a), vecToFile(t, b)
	defer va.Close()
	defer vb.Close()
	if err := va.StreamMerge(vb, func(dst, src []fr.Element) {
		for i := range dst {
			dst[i].Mul(&dst[i], &src[i])
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		a[i].Mul(&a[i], &b[i])
	}
	requireFileEquals(t, va, a)
}
