package poly

import (
	"fmt"
	"os"
	"sync"
	"unsafe"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/par"
)

// Out-of-core vectors: a VecFile is a disk-resident vector of field
// elements, the storage behind the bounded-memory FFT pipeline. At
// paper scale one FFT-domain vector is tens of MB; the quotient
// pipeline needs several of them, and an out-of-core prover cannot
// afford to keep even one fully resident. A VecFile is process-local
// scratch — created, read and removed by one process, opened by no other
// and by no later run — so its format is the elements' own memory: reads
// and writes are pread/pwrite straight on the element slice, in native
// limb order with the Montgomery form preserved bit for bit. A
// spill/load round trip is exact and converts nothing, and every
// downstream field operation produces the same bits it would have in
// RAM.

// VecElemSize is the on-disk footprint of one field element.
const VecElemSize = 8 * fr.Limbs

// vecIOChunk is the element count of one streaming window (1 MiB).
const vecIOChunk = 1 << 15

// VecFile is a fixed-length disk-resident vector of fr elements.
type VecFile struct {
	f *os.File
	n int
}

// CreateVecFile creates an empty (zeroed) disk vector of n elements in
// dir (the system temp directory when dir is empty). The file is
// sparse until written.
func CreateVecFile(dir string, n int) (*VecFile, error) {
	f, err := os.CreateTemp(dir, "zkrownn-vec-*.ooc")
	if err != nil {
		return nil, fmt.Errorf("poly: vec file: %w", err)
	}
	if err := f.Truncate(int64(n) * VecElemSize); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("poly: vec file: %w", err)
	}
	return &VecFile{f: f, n: n}, nil
}

// Len returns the vector length in elements.
func (vf *VecFile) Len() int { return vf.n }

// Close releases and removes the backing file (and with it the
// sub-vectors the out-of-core transforms keep in its second half).
func (vf *VecFile) Close() error {
	name := vf.f.Name()
	err := vf.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// vecWinPool recycles the streaming machinery's 1 MiB element windows.
// They are hot (dozens of uses per out-of-core quotient) and allocating
// each use would churn the very GC the pipeline exists to relieve: at one
// P under a memory limit, tens of MB of transient windows linger as
// floating garbage and show up in peak RSS.
var vecWinPool = sync.Pool{
	New: func() any {
		w := make([]fr.Element, vecIOChunk)
		return &w
	},
}

// getWin borrows one element window of vecIOChunk elements; hand the
// pointer back to putWin when done.
func getWin() *[]fr.Element { return vecWinPool.Get().(*[]fr.Element) }

// getWinLen borrows a window of at least n elements: a pooled one when n
// fits vecIOChunk, a fresh one otherwise, which putWin lets go.
func getWinLen(n int) *[]fr.Element {
	if n <= vecIOChunk {
		return getWin()
	}
	w := make([]fr.Element, n)
	return &w
}

func putWin(w *[]fr.Element) {
	if cap(*w) == vecIOChunk {
		vecWinPool.Put(w)
	}
}

// elemBytes views v's memory as bytes, without copying: the file image
// of v.
func elemBytes(v []fr.Element) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*VecElemSize)
}

// WriteAt stores v at element offset start.
func (vf *VecFile) WriteAt(v []fr.Element, start int) error {
	if _, err := vf.f.WriteAt(elemBytes(v), int64(start)*VecElemSize); err != nil {
		return fmt.Errorf("poly: vec write at %d: %w", start, err)
	}
	return nil
}

// ReadAt loads len(v) elements from element offset start.
func (vf *VecFile) ReadAt(v []fr.Element, start int) error {
	if _, err := vf.f.ReadAt(elemBytes(v), int64(start)*VecElemSize); err != nil {
		return fmt.Errorf("poly: vec read at %d: %w", start, err)
	}
	return nil
}

// StreamMerge folds other into vf window by window: fn(dst, src)
// mutates dst = vf[lo:hi] given src = other[lo:hi], called concurrently
// on disjoint sub-ranges of each window (an elementwise fn needs no
// care). Both vectors must have equal length; peak memory is two
// windows.
func (vf *VecFile) StreamMerge(other *VecFile, fn func(dst, src []fr.Element)) error {
	if other.n != vf.n {
		return fmt.Errorf("poly: vec merge length mismatch %d != %d", other.n, vf.n)
	}
	dp, sp := getWin(), getWin()
	defer putWin(dp)
	defer putWin(sp)
	dst, src := *dp, *sp
	for start := 0; start < vf.n; start += vecIOChunk {
		end := min(start+vecIOChunk, vf.n)
		d, s := dst[:end-start], src[:end-start]
		if err := vf.ReadAt(d, start); err != nil {
			return err
		}
		if err := other.ReadAt(s, start); err != nil {
			return err
		}
		par.Range(len(d), func(lo, hi int) { fn(d[lo:hi], s[lo:hi]) })
		if err := vf.WriteAt(d, start); err != nil {
			return err
		}
	}
	return nil
}
