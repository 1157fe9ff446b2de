package r1cs

import (
	"container/list"
	"fmt"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/poly"
)

// Spillable witness: at paper scale the full wire assignment is the
// second-largest per-proof object after the key (32 bytes per wire —
// hundreds of MB for a VGG-class circuit), and CSR row evaluation needs
// random access to it. WitnessFile keeps the assignment in a
// poly.VecFile and serves reads and writes through a bounded LRU page
// cache, so the solver can replay the tape and the prover can evaluate
// constraint rows with a fixed resident budget; the MSM consumers then
// stream the finished assignment sequentially through ReadRange — the
// same io.ReaderAt-style scalar path the out-of-core quotient already
// uses.
//
// Spill/load roundtrips preserve the Montgomery encoding bit for bit
// (poly.VecFile's invariant), so a spilled solve produces exactly the
// witness bits of CompiledSystem.Solve and proofs stay byte-identical.

// witnessPageElems is the page size in elements (1<<12 × 32 B = 128 KiB).
const witnessPageElems = 1 << 12

// witnessMinPages is the cache floor: enough pages that the solver's
// read locality (inputs + current level) does not thrash even under a
// token budget.
const witnessMinPages = 8

// WitnessFile is a disk-resident wire assignment with a bounded page
// cache. It is NOT safe for concurrent use: the solver writes it from
// one goroutine, and the prover keeps to one rule — the page cache
// (Get) is read only by the single walk over the constraint rows that
// opens a prove, before its two lanes fork; after the fork the witness
// lane alone touches the store, through ReadRange, on one goroutine, and
// the quotient lane never does (it works on the row evaluations the walk
// kept). Read/write errors are sticky — Get returns zero after a fault and
// Err reports the first failure — so hot loops stay branch-light and
// callers check once per window.
type WitnessFile struct {
	vf        *poly.VecFile
	n         int
	maxPages  int
	pages     map[int]*witnessPage
	lru       *list.List // front = most recent
	err       error
	pageLoads uint64
	gets      uint64
}

type witnessPage struct {
	idx   int
	dirty bool
	data  []fr.Element
	elem  *list.Element
}

// NewWitnessFile creates a spill store for n wires in dir (system temp
// directory when empty). budgetBytes bounds the resident page cache;
// values at or below zero, and anything under the floor, get the
// minimum cache (witnessMinPages pages).
func NewWitnessFile(dir string, n int, budgetBytes int64) (*WitnessFile, error) {
	vf, err := poly.CreateVecFile(dir, n)
	if err != nil {
		return nil, err
	}
	maxPages := int(budgetBytes / (witnessPageElems * poly.VecElemSize))
	if maxPages < witnessMinPages {
		maxPages = witnessMinPages
	}
	return &WitnessFile{
		vf:       vf,
		n:        n,
		maxPages: maxPages,
		pages:    make(map[int]*witnessPage, maxPages+1),
		lru:      list.New(),
	}, nil
}

// Len returns the wire count.
func (wf *WitnessFile) Len() int { return wf.n }

// Err returns the first read/write failure, if any.
func (wf *WitnessFile) Err() error { return wf.err }

// Close flushes nothing (spill files are scratch) and removes the
// backing file.
func (wf *WitnessFile) Close() error { return wf.vf.Close() }

// page returns the cached page holding element i, faulting it in (and
// evicting the least-recently-used page, with write-back if dirty)
// as needed.
func (wf *WitnessFile) page(i int) *witnessPage {
	idx := i / witnessPageElems
	if p, ok := wf.pages[idx]; ok {
		wf.lru.MoveToFront(p.elem)
		return p
	}
	start := idx * witnessPageElems
	end := min(start+witnessPageElems, wf.n)
	var p *witnessPage
	if len(wf.pages) >= wf.maxPages {
		// Reuse the evicted page's buffer — the cache stays at a fixed
		// set of allocations for the whole solve.
		victim := wf.lru.Back().Value.(*witnessPage)
		wf.flushPage(victim)
		delete(wf.pages, victim.idx)
		wf.lru.Remove(victim.elem)
		p = victim
	} else {
		p = &witnessPage{data: make([]fr.Element, witnessPageElems)}
	}
	p.idx = idx
	p.dirty = false
	p.data = p.data[:end-start]
	if wf.err == nil {
		if err := wf.vf.ReadAt(p.data, start); err != nil {
			wf.err = fmt.Errorf("r1cs: witness page load: %w", err)
		}
	}
	wf.pageLoads++
	mWitnessSpillPageLoads.Inc()
	p.elem = wf.lru.PushFront(p)
	wf.pages[idx] = p
	return p
}

// flushPage writes one dirty page back and marks it clean.
func (wf *WitnessFile) flushPage(p *witnessPage) {
	if !p.dirty {
		return
	}
	p.dirty = false
	if wf.err == nil {
		if err := wf.vf.WriteAt(p.data, p.idx*witnessPageElems); err != nil {
			wf.err = fmt.Errorf("r1cs: witness page flush: %w", err)
			return
		}
	}
	mWitnessSpillPageFlushes.Inc()
	mWitnessSpillBytes.Add(uint64(len(p.data)) * poly.VecElemSize)
}

// Get returns wire i's value (zero after a fault; see Err).
func (wf *WitnessFile) Get(i uint32) fr.Element {
	wf.gets++
	p := wf.page(int(i))
	return p.data[int(i)%witnessPageElems]
}

// Set writes wire i's value into the page cache; Flush persists it.
func (wf *WitnessFile) Set(i uint32, v *fr.Element) {
	p := wf.page(int(i))
	p.data[int(i)%witnessPageElems] = *v
	p.dirty = true
}

// Flush writes every dirty page back, leaving the cache warm and
// clean. Called at solver-level boundaries and before sequential
// ReadRange consumption.
func (wf *WitnessFile) Flush() error {
	for e := wf.lru.Front(); e != nil; e = e.Next() {
		wf.flushPage(e.Value.(*witnessPage))
	}
	return wf.err
}

// ReadRange loads len(dst) elements starting at wire start, reading
// through the flushed file. Any dirty pages are flushed first, so the
// range is always coherent with cached writes.
func (wf *WitnessFile) ReadRange(dst []fr.Element, start int) error {
	if err := wf.Flush(); err != nil {
		return err
	}
	if start < 0 || start+len(dst) > wf.n {
		return fmt.Errorf("r1cs: witness read [%d,%d) out of range [0,%d)", start, start+len(dst), wf.n)
	}
	return wf.vf.ReadAt(dst, start)
}

// PageLoads returns the number of page faults served so far (test and
// diagnostics hook).
func (wf *WitnessFile) PageLoads() uint64 { return wf.pageLoads }

// Gets returns the number of single-wire reads served through the page
// cache so far (test and diagnostics hook, like PageLoads).
func (wf *WitnessFile) Gets() uint64 { return wf.gets }

func (p *Program) evalLCSpilled(off, end uint32, wf *WitnessFile) fr.Element {
	var acc, t fr.Element
	for k := off; k < end; k++ {
		wv := wf.Get(p.Wires[k])
		t.Mul(&p.Dict[p.CoeffIdx[k]], &wv)
		acc.Add(&acc, &t)
	}
	return acc
}

// execSpilled is exec against a spilled witness: the same Instr.apply
// over the page cache, so the solved bits match Solve exactly.
func (p *Program) execSpilled(in *Instr, wf *WitnessFile) {
	in.apply(func(off, end uint32) fr.Element { return p.evalLCSpilled(off, end, wf) },
		func(wire uint32, v fr.Element) { wf.Set(wire, &v) })
}

// SolveSpilled replays the solver program against a spilled witness
// store: inputs are scattered into the page cache and each dependency
// level runs in tape order, with completed levels flushed at the level
// boundary (the natural point — instructions within a level only read
// wires of earlier levels, so a flushed level never goes dirty again
// unless evicted pages interleave wires). Execution is serial — the
// page cache is single-goroutine — which trades the resident solver's
// within-level parallelism for bounded memory; it only engages when the
// engine decides the witness cannot stay resident.
//
// The solved bits equal Solve's exactly (same instructions, same field
// arithmetic, bit-exact spill roundtrips), so downstream proofs are
// byte-identical to the resident path.
func (cs *CompiledSystem) SolveSpilled(public, secret []fr.Element, wf *WitnessFile, tr *obs.Trace) error {
	if len(public) != len(cs.PubInputs) {
		return fmt.Errorf("r1cs: solve: got %d public inputs, circuit expects %d", len(public), len(cs.PubInputs))
	}
	if len(secret) != len(cs.SecretInputs) {
		return fmt.Errorf("r1cs: solve: got %d secret inputs, circuit expects %d", len(secret), len(cs.SecretInputs))
	}
	if wf.Len() != cs.NbWires {
		return fmt.Errorf("r1cs: solve: witness store holds %d wires, circuit has %d", wf.Len(), cs.NbWires)
	}
	var one fr.Element
	one.SetOne()
	wf.Set(0, &one)
	for i, wi := range cs.PubInputs {
		wf.Set(wi, &public[i])
	}
	for i, wi := range cs.SecretInputs {
		wf.Set(wi, &secret[i])
	}
	p := &cs.Program
	for l := 0; l+1 < len(p.Levels); l++ {
		sp := tr.Span("solve/spill-level")
		for k := p.Levels[l]; k < p.Levels[l+1]; k++ {
			p.execSpilled(&p.Instrs[k], wf)
		}
		err := wf.Flush()
		sp.End()
		if err != nil {
			return err
		}
		mWitnessSpillLevels.Inc()
	}
	return wf.Flush()
}
