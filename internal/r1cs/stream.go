package r1cs

import (
	"sort"
	"sync"

	"zkrownn/internal/bn254/fr"
)

// Streaming constraint access: at paper scale the CSR matrices are the
// largest compile-time object (GBs for a VGG-class circuit), so the
// Groth16 backend consumes them through the Constraints interface
// below — satisfied both by the resident CompiledSystem and by the
// disk-backed CompiledSystemFile — and walks each matrix in bounded
// row windows instead of requiring the flat term arrays in memory.

// Dims carries the three scalar dimensions every backend needs.
type Dims struct {
	NbConstraints int
	NbWires       int
	NbPublic      int
}

// Constraints is the read-side contract of a compiled constraint
// system: dimensions, the structural digest (cache key), and streaming
// access to the three R1CS matrices. *CompiledSystem implements it with
// zero-copy windows over its resident CSR arrays; *CompiledSystemFile
// implements it by reading bounded windows from disk. Implementations
// must be safe for concurrent use by the prover's parallel phases.
type Constraints interface {
	Dims() Dims
	Digest() [32]byte
	DigestHex() string
	MatA() MatrixStream
	MatB() MatrixStream
	MatC() MatrixStream
}

// MatrixStream is bounded-window row access to one R1CS matrix. Row
// offsets stay resident (4 bytes per constraint — two orders of
// magnitude below the term arrays), so window planning never touches
// the term sections.
type MatrixStream interface {
	// NbRows returns the number of constraint rows.
	NbRows() int
	// NbTerms returns the total term count.
	NbTerms() int
	// EndRowForTerms returns the largest end such that rows
	// [start, end) together hold at most maxTerms terms — but always at
	// least start+1, so a single row denser than the budget still loads
	// (with a proportionally larger window).
	EndRowForTerms(start, maxTerms int) int
	// LoadRows fills win with rows [start, end), reusing win's buffers
	// across calls. Resident matrices alias their arrays (zero copy);
	// disk matrices read the term span into win's scratch. The window
	// contents are valid until the next LoadRows on the same win.
	LoadRows(win *RowWindow, start, end int) error
}

// DefaultRowWindowTerms is the default scratch budget of one row
// window: 256Ki terms ≈ 2 MiB of wire+coeff indices (plus 8 MiB of
// per-term products where a consumer materializes them).
const DefaultRowWindowTerms = 1 << 18

// RowWindow is a contiguous run of CSR rows handed out by
// MatrixStream.LoadRows. Offs holds Rows+1 monotone term offsets in the
// matrix's global term numbering; the terms of local row i are
// Wires/CoeffIdx[Offs[i]-Offs[0] : Offs[i+1]-Offs[0]]. Dict is the
// matrix's shared coefficient dictionary.
type RowWindow struct {
	Start    int // global index of the window's first row
	Rows     int
	Offs     []uint32
	Wires    []uint32
	CoeffIdx []uint32
	Dict     []fr.Element

	// Disk-read scratch, reused across LoadRows calls. A resident
	// matrix points Wires and CoeffIdx into its own arrays, so a disk
	// matrix decodes into these instead, never into whatever Wires
	// holds: a window may serve both kinds in turn.
	buf               []byte
	wireBuf, coeffBuf []uint32
}

// NbTerms returns the window's term count.
func (rw *RowWindow) NbTerms() int { return int(rw.Offs[rw.Rows] - rw.Offs[0]) }

// Row returns the wire and coefficient-index slices of local row i.
func (rw *RowWindow) Row(i int) (wires, coeffIdx []uint32) {
	base := rw.Offs[0]
	lo, hi := rw.Offs[i]-base, rw.Offs[i+1]-base
	return rw.Wires[lo:hi], rw.CoeffIdx[lo:hi]
}

// RowEval computes ⟨row Start+i, w⟩ for local row i against a resident
// witness.
func (rw *RowWindow) RowEval(i int, w []fr.Element) fr.Element {
	base := rw.Offs[0]
	var acc, t fr.Element
	for k := rw.Offs[i] - base; k < rw.Offs[i+1]-base; k++ {
		t.Mul(&rw.Dict[rw.CoeffIdx[k]], &w[rw.Wires[k]])
		acc.Add(&acc, &t)
	}
	return acc
}

// NbTerms returns the matrix's total term count.
func (m *Matrix) NbTerms() int { return len(m.Wires) }

// EndRowForTerms implements MatrixStream against the resident offsets.
func (m *Matrix) EndRowForTerms(start, maxTerms int) int {
	return endRowForTerms(m.RowOffs, start, maxTerms)
}

// endRowForTerms finds the largest end with offs[end]-offs[start] ≤
// maxTerms via binary search over the monotone offsets (min start+1).
func endRowForTerms(offs []uint32, start, maxTerms int) int {
	n := len(offs) - 1
	if start >= n {
		return n
	}
	limit := uint64(offs[start]) + uint64(maxTerms)
	fit := sort.Search(n-start, func(k int) bool {
		return uint64(offs[start+1+k]) > limit
	})
	if fit == 0 {
		fit = 1
	}
	return start + fit
}

// LoadRows implements MatrixStream with zero-copy aliasing of the
// resident CSR arrays.
func (m *Matrix) LoadRows(win *RowWindow, start, end int) error {
	lo, hi := m.RowOffs[start], m.RowOffs[end]
	win.Start, win.Rows = start, end-start
	win.Offs = m.RowOffs[start : end+1]
	win.Wires = m.Wires[lo:hi]
	win.CoeffIdx = m.CoeffIdx[lo:hi]
	win.Dict = m.Dict
	return nil
}

// Dims implements Constraints.
func (cs *CompiledSystem) Dims() Dims {
	return Dims{NbConstraints: cs.NbConstraints(), NbWires: cs.NbWires, NbPublic: cs.NbPublic}
}

// MatA implements Constraints (likewise MatB, MatC).
func (cs *CompiledSystem) MatA() MatrixStream { return &cs.A }

// MatB returns the streaming view of matrix B.
func (cs *CompiledSystem) MatB() MatrixStream { return &cs.B }

// MatC returns the streaming view of matrix C.
func (cs *CompiledSystem) MatC() MatrixStream { return &cs.C }

// windowPool keeps row windows, and with them a disk matrix's read
// scratch, from one ForRowWindows walk to the next.
var windowPool = sync.Pool{New: func() any { return new(RowWindow) }}

// ForRowWindows walks several matrices over the same rows in lockstep:
// each step covers the largest row range where every matrix fits
// maxTerms, so consumers that need A, B, and C of one constraint
// together (the prover's row walk) see aligned windows. fn receives one
// window per matrix; windows are reused between steps and, through a
// pool, between walks, so a second walk over a disk-resident system
// allocates no term buffers.
func ForRowWindows(maxTerms int, mats []MatrixStream, fn func(wins []*RowWindow) error) error {
	if len(mats) == 0 {
		return nil
	}
	n := mats[0].NbRows()
	wins := make([]*RowWindow, len(mats))
	for i := range wins {
		wins[i] = windowPool.Get().(*RowWindow)
	}
	defer func() {
		for _, win := range wins {
			// Keep the scratch, drop what points into a matrix.
			*win = RowWindow{buf: win.buf, wireBuf: win.wireBuf, coeffBuf: win.coeffBuf}
			windowPool.Put(win)
		}
	}()
	for start := 0; start < n; {
		end := n
		for _, m := range mats {
			if e := m.EndRowForTerms(start, maxTerms); e < end {
				end = e
			}
		}
		for i, m := range mats {
			if err := m.LoadRows(wins[i], start, end); err != nil {
				return err
			}
		}
		if err := fn(wins); err != nil {
			return err
		}
		start = end
	}
	return nil
}
