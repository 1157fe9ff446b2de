// Package r1cs defines the rank-1 constraint system representation that
// the frontend compiles circuits into and the Groth16 backend consumes.
//
// A system over F_r has wires w₀..w_{m-1} with the fixed layout
//
//	w₀ = 1 (the constant wire)
//	w₁..w_{ℓ} = public inputs/outputs (the "instance")
//	w_{ℓ+1}.. = private witness
//
// and constraints ⟨Aᵢ, w⟩ · ⟨Bᵢ, w⟩ = ⟨Cᵢ, w⟩.
//
// There is one representation, CompiledSystem: the three matrices in CSR
// form plus a recorded witness solver. Compilation (circuit synthesis,
// linear-combination merging, wire permutation) happens once per
// architecture; every subsequent proof replays the solver program
// against fresh inputs — orders of magnitude cheaper than re-running the
// circuit builder. The frontend emits a CompiledSystem; Groth16, the
// engine and the constraint-system file consume it; tests that need a
// hand-written system build one from rows through the r1cstest
// subpackage, whose math/big oracle is the reference IsSatisfied and
// Digest are held to.
package r1cs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/par"
)

// Matrix is one R1CS matrix (A, B, or C) in compressed sparse row form:
// row i's terms are Wires[RowOffs[i]:RowOffs[i+1]] with matching
// coefficients Dict[CoeffIdx[k]], so QAP accumulation and witness checks
// walk contiguous arrays instead of per-constraint allocations.
//
// Coefficients are dictionary-compressed: circuit matrices draw their
// coefficients from a tiny set (±1, powers of two from bit
// decompositions, a handful of fixed-point constants — a few hundred
// distinct values even at paper scale), so storing a uint32 dictionary
// index per term instead of a 32-byte field element cuts the resident
// matrix size roughly 4× and is what keeps the compiled system small
// enough for out-of-core proving's memory budget.
type Matrix struct {
	RowOffs  []uint32 // len nbConstraints+1
	Wires    []uint32
	CoeffIdx []uint32     // per-term index into Dict
	Dict     []fr.Element // distinct coefficients
}

// NbRows returns the number of constraint rows.
func (m *Matrix) NbRows() int { return len(m.RowOffs) - 1 }

// RowEval computes ⟨row i, w⟩.
func (m *Matrix) RowEval(i int, w []fr.Element) fr.Element {
	var acc, t fr.Element
	for k := m.RowOffs[i]; k < m.RowOffs[i+1]; k++ {
		t.Mul(&m.Dict[m.CoeffIdx[k]], &w[m.Wires[k]])
		acc.Add(&acc, &t)
	}
	return acc
}

// CoeffInterner builds a coefficient dictionary during compilation:
// Intern maps each distinct field element to a stable dense index
// (first-seen order), and Dict returns the backing table for Matrix or
// Program.
type CoeffInterner struct {
	idx  map[fr.Element]uint32
	dict []fr.Element
}

// NewCoeffInterner returns an empty interner.
func NewCoeffInterner() *CoeffInterner {
	return &CoeffInterner{idx: make(map[fr.Element]uint32)}
}

// Intern returns the dictionary index for c, adding it if new.
func (ci *CoeffInterner) Intern(c fr.Element) uint32 {
	if i, ok := ci.idx[c]; ok {
		return i
	}
	i := uint32(len(ci.dict))
	ci.idx[c] = i
	ci.dict = append(ci.dict, c)
	return i
}

// Dict returns the interned coefficient table.
func (ci *CoeffInterner) Dict() []fr.Element { return ci.dict }

// OpCode enumerates solver-program instructions. Every non-input wire of
// a compiled circuit is produced by exactly one instruction; the set
// mirrors the frontend operations that allocate wires.
type OpCode uint8

const (
	// OpLC writes the evaluation of linear combination A (Reduce and
	// public outputs).
	OpLC OpCode = iota
	// OpMul writes eval(A)·eval(B).
	OpMul
	// OpInv writes eval(A)⁻¹, with 0⁻¹ = 0 (the Inverse and IsZero
	// auxiliary-wire convention; an actual zero input then fails the
	// corresponding constraint, as intended).
	OpInv
	// OpIsZero writes 1 when eval(A) is zero, else 0 (a solver hint —
	// the booleanity is enforced by the accompanying constraints).
	OpIsZero
	// OpBits writes the NOut little-endian bits of eval(A) into wires
	// Out..Out+NOut-1 (bit decomposition).
	OpBits
)

// Instr is one solver instruction. Linear combinations are spans into
// the Program's shared term pools.
type Instr struct {
	Op         OpCode
	Out        uint32 // first output wire
	NOut       uint32 // number of output wires (1 except OpBits)
	AOff, AEnd uint32
	BOff, BEnd uint32 // OpMul only
}

// Program is the recorded witness solver: an instruction tape that
// recomputes every internal wire from the input wires alone. Levels
// partitions the tape into dependency levels — Instrs[Levels[l]:
// Levels[l+1]] only read wires written before level l — so Solve can
// evaluate each level in parallel. LC term coefficients are
// dictionary-compressed exactly like Matrix coefficients.
type Program struct {
	Instrs   []Instr
	Wires    []uint32
	CoeffIdx []uint32
	Dict     []fr.Element
	Levels   []uint32
}

func (p *Program) evalLC(off, end uint32, w []fr.Element) fr.Element {
	var acc, t fr.Element
	for k := off; k < end; k++ {
		t.Mul(&p.Dict[p.CoeffIdx[k]], &w[p.Wires[k]])
		acc.Add(&acc, &t)
	}
	return acc
}

// exec evaluates one instruction against the (partially solved) witness.
func (p *Program) exec(in *Instr, w []fr.Element) {
	in.apply(func(off, end uint32) fr.Element { return p.evalLC(off, end, w) },
		func(wire uint32, v fr.Element) { w[wire] = v })
}

// apply is the one definition of the opcodes, whatever store holds the
// witness: eval evaluates one of the instruction's linear combinations
// (a span of the term pools) against the store, and put writes one
// output wire to it. B is evaluated for OpMul only.
func (in *Instr) apply(eval func(off, end uint32) fr.Element, put func(wire uint32, v fr.Element)) {
	a := eval(in.AOff, in.AEnd)
	var v fr.Element
	switch in.Op {
	case OpLC:
		v = a
	case OpMul:
		b := eval(in.BOff, in.BEnd)
		v.Mul(&a, &b)
	case OpInv:
		v.Inverse(&a)
	case OpIsZero:
		if a.IsZero() {
			v.SetOne()
		}
	case OpBits:
		bits := a.ToBigInt()
		var one fr.Element
		one.SetOne()
		for i := uint32(0); i < in.NOut; i++ {
			if bits.Bit(int(i)) == 1 {
				put(in.Out+i, one)
			} else {
				put(in.Out+i, fr.Element{})
			}
		}
		return
	}
	put(in.Out, v)
}

// Assignment binds concrete values to a compiled system's declared
// inputs, in declaration order. It is the per-proof half of the
// compile-once / solve-many split: one CompiledSystem serves many
// Assignments.
type Assignment struct {
	// Public values for CompiledSystem.PubInputs (public *inputs* only —
	// public outputs are computed by the solver program).
	Public []fr.Element
	// Secret values for CompiledSystem.SecretInputs.
	Secret []fr.Element
}

// CompiledSystem is a constraint system compiled for repeated proving:
// CSR matrices for the Groth16 backend, an input-binding layout, and the
// recorded solver program that rebuilds the full witness from inputs.
// It is immutable after compilation and safe for concurrent use — many
// goroutines may Solve distinct assignments against one instance.
type CompiledSystem struct {
	A, B, C Matrix

	// NbPublic counts the constant-one wire plus all public wires
	// (inputs and computed outputs); wires 0..NbPublic-1 are the
	// statement.
	NbPublic int
	NbWires  int
	// PublicNames labels the public wires (index 0 is "one").
	PublicNames []string

	// PubInputs lists the public wires whose values the caller provides
	// at solve time, in declaration order; PubInputNames labels them
	// (used to rebind inputs — e.g. suspect-model weights — by name).
	PubInputs     []uint32
	PubInputNames []string
	// SecretInputs lists the private input wires, in declaration order.
	SecretInputs []uint32

	Program Program

	digestOnce sync.Once
	digest     [32]byte

	// stripped marks a StripForSolve copy (placeholder CSR arrays).
	stripped bool
}

// NbPrivate returns the number of private witness wires.
func (cs *CompiledSystem) NbPrivate() int { return cs.NbWires - cs.NbPublic }

// NbConstraints returns the number of constraints.
func (cs *CompiledSystem) NbConstraints() int { return cs.A.NbRows() }

// Solve replays the solver program: it scatters the assignment onto the
// input wires and evaluates the tape level by level (instructions within
// a level are independent and run in parallel), returning the full wire
// assignment. It never mutates the system and allocates a fresh witness,
// so concurrent calls with distinct inputs are safe.
func (cs *CompiledSystem) Solve(public, secret []fr.Element) ([]fr.Element, error) {
	if len(public) != len(cs.PubInputs) {
		return nil, fmt.Errorf("r1cs: solve: got %d public inputs, circuit expects %d", len(public), len(cs.PubInputs))
	}
	if len(secret) != len(cs.SecretInputs) {
		return nil, fmt.Errorf("r1cs: solve: got %d secret inputs, circuit expects %d", len(secret), len(cs.SecretInputs))
	}
	w := make([]fr.Element, cs.NbWires)
	w[0].SetOne()
	for i, wi := range cs.PubInputs {
		w[wi] = public[i]
	}
	for i, wi := range cs.SecretInputs {
		w[wi] = secret[i]
	}
	p := &cs.Program
	for l := 0; l+1 < len(p.Levels); l++ {
		lo, hi := int(p.Levels[l]), int(p.Levels[l+1])
		par.Range(hi-lo, func(s, e int) {
			for k := lo + s; k < lo+e; k++ {
				p.exec(&p.Instrs[k], w)
			}
		})
	}
	return w, nil
}

// SolveAssignment is Solve over an Assignment value.
func (cs *CompiledSystem) SolveAssignment(asg Assignment) ([]fr.Element, error) {
	return cs.Solve(asg.Public, asg.Secret)
}

// PublicValues extracts the instance (public wires, excluding the
// constant wire) from a solved witness, in the order Verify expects.
func (cs *CompiledSystem) PublicValues(witness []fr.Element) []fr.Element {
	out := make([]fr.Element, cs.NbPublic-1)
	copy(out, witness[1:cs.NbPublic])
	return out
}

// IsSatisfied reports whether the witness satisfies every constraint,
// checking rows in parallel over the flat CSR arrays; on failure it
// returns the index of the first violated constraint.
func (cs *CompiledSystem) IsSatisfied(w []fr.Element) (bool, int) {
	if len(w) != cs.NbWires {
		return false, -1
	}
	if !w[0].IsOne() {
		return false, -1
	}
	n := cs.NbConstraints()
	var bad atomic.Int64
	bad.Store(int64(n))
	par.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := cs.A.RowEval(i, w)
			b := cs.B.RowEval(i, w)
			c := cs.C.RowEval(i, w)
			var ab fr.Element
			ab.Mul(&a, &b)
			if !ab.Equal(&c) {
				// Chunks scan ascending, so the chunk's first violation is
				// its minimum; the atomic min across chunks is global.
				for {
					cur := bad.Load()
					if int64(i) >= cur || bad.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
				return
			}
		}
	})
	if v := bad.Load(); v < int64(n) {
		return false, int(v)
	}
	return true, 0
}

// Digest returns a SHA-256 digest of the system's structure: wire
// layout and every constraint's sparse coefficients. Two systems share a
// digest exactly when the Groth16 trusted setup would produce
// interchangeable keys for them, so it is the engine's key-cache key and
// the proof service's model ID. Public-wire *values* live in the witness:
// the same architecture under different model weights keeps its digest
// (and its keys). The byte stream is pinned by committed literals and by
// r1cstest.Digest; the result is cached and concurrent calls are safe.
func (cs *CompiledSystem) Digest() [32]byte {
	cs.digestOnce.Do(func() {
		h := sha256.New()
		var buf [4]byte
		writeU32 := func(vs ...uint32) {
			for _, v := range vs {
				binary.LittleEndian.PutUint32(buf[:], v)
				h.Write(buf[:])
			}
		}
		h.Write([]byte("zkrownn/r1cs/v1"))
		n := cs.NbConstraints()
		writeU32(uint32(cs.NbPublic), uint32(cs.NbWires), uint32(n))
		writeRow := func(m *Matrix, i int) {
			lo, hi := m.RowOffs[i], m.RowOffs[i+1]
			writeU32(hi - lo)
			for k := lo; k < hi; k++ {
				b := m.Dict[m.CoeffIdx[k]].Bytes()
				binary.LittleEndian.PutUint32(buf[:], m.Wires[k])
				h.Write(buf[:])
				h.Write(b[:])
			}
		}
		for i := 0; i < n; i++ {
			writeRow(&cs.A, i)
			writeRow(&cs.B, i)
			writeRow(&cs.C, i)
		}
		h.Sum(cs.digest[:0])
	})
	return cs.digest
}

// DigestHex returns Digest as a lowercase hex string.
func (cs *CompiledSystem) DigestHex() string {
	d := cs.Digest()
	return hex.EncodeToString(d[:])
}

// Validate checks structural invariants: matching row counts, row
// offsets that start at zero and never decrease, wire and coefficient
// indices in range, a well-formed public prefix, inputs inside the wire
// space, and solver-program coverage (every non-input wire written by
// exactly one instruction, reading only wires of earlier levels or
// inputs).
func (cs *CompiledSystem) Validate() error {
	if cs.NbPublic < 1 {
		return fmt.Errorf("r1cs: NbPublic must include the constant wire (got %d)", cs.NbPublic)
	}
	if cs.NbWires < cs.NbPublic {
		return fmt.Errorf("r1cs: NbWires %d < NbPublic %d", cs.NbWires, cs.NbPublic)
	}
	n := cs.A.NbRows()
	if n < 0 || cs.B.NbRows() != n || cs.C.NbRows() != n {
		return fmt.Errorf("r1cs: matrix row counts differ or a matrix has no row offsets (A=%d B=%d C=%d)", n, cs.B.NbRows(), cs.C.NbRows())
	}
	checkMatrix := func(name string, m *Matrix) error {
		if len(m.Wires) != len(m.CoeffIdx) {
			return fmt.Errorf("r1cs: matrix %s has %d wires but %d coeffs", name, len(m.Wires), len(m.CoeffIdx))
		}
		if m.RowOffs[0] != 0 {
			return fmt.Errorf("r1cs: matrix %s row offsets start at %d, not 0", name, m.RowOffs[0])
		}
		for i := range m.RowOffs[1:] {
			if m.RowOffs[i+1] < m.RowOffs[i] {
				return fmt.Errorf("r1cs: matrix %s row offsets decrease at row %d", name, i)
			}
		}
		if int(m.RowOffs[len(m.RowOffs)-1]) != len(m.Wires) {
			return fmt.Errorf("r1cs: matrix %s row offsets end at %d, have %d terms", name, m.RowOffs[len(m.RowOffs)-1], len(m.Wires))
		}
		for _, wi := range m.Wires {
			if int(wi) >= cs.NbWires {
				return fmt.Errorf("r1cs: matrix %s wire index %d out of range [0,%d)", name, wi, cs.NbWires)
			}
		}
		for _, ci := range m.CoeffIdx {
			if int(ci) >= len(m.Dict) {
				return fmt.Errorf("r1cs: matrix %s coefficient index %d out of dictionary range [0,%d)", name, ci, len(m.Dict))
			}
		}
		return nil
	}
	if err := checkMatrix("A", &cs.A); err != nil {
		return err
	}
	if err := checkMatrix("B", &cs.B); err != nil {
		return err
	}
	if err := checkMatrix("C", &cs.C); err != nil {
		return err
	}
	if len(cs.PubInputs) != len(cs.PubInputNames) {
		return fmt.Errorf("r1cs: %d public input wires but %d names", len(cs.PubInputs), len(cs.PubInputNames))
	}

	// Input / program coverage.
	written := make([]uint8, cs.NbWires)
	written[0] = 1
	mark := func(wi uint32, what string) error {
		if int(wi) >= cs.NbWires {
			return fmt.Errorf("r1cs: %s wire %d out of range [0,%d)", what, wi, cs.NbWires)
		}
		if written[wi] != 0 {
			return fmt.Errorf("r1cs: wire %d assigned more than once (%s)", wi, what)
		}
		written[wi] = 1
		return nil
	}
	for _, wi := range cs.PubInputs {
		if int(wi) >= cs.NbPublic {
			return fmt.Errorf("r1cs: public input wire %d outside public prefix [1,%d)", wi, cs.NbPublic)
		}
		if err := mark(wi, "public input"); err != nil {
			return err
		}
	}
	for _, wi := range cs.SecretInputs {
		if int(wi) < cs.NbPublic {
			return fmt.Errorf("r1cs: secret input wire %d inside public prefix", wi)
		}
		if err := mark(wi, "secret input"); err != nil {
			return err
		}
	}
	p := &cs.Program
	if len(p.Levels) > 0 {
		if p.Levels[0] != 0 || int(p.Levels[len(p.Levels)-1]) != len(p.Instrs) {
			return fmt.Errorf("r1cs: program levels do not cover the tape")
		}
	} else if len(p.Instrs) > 0 {
		return fmt.Errorf("r1cs: program has instructions but no levels")
	}
	if len(p.Wires) != len(p.CoeffIdx) {
		return fmt.Errorf("r1cs: program has %d term wires but %d coeff indices", len(p.Wires), len(p.CoeffIdx))
	}
	for _, ci := range p.CoeffIdx {
		if int(ci) >= len(p.Dict) {
			return fmt.Errorf("r1cs: program coefficient index %d out of dictionary range [0,%d)", ci, len(p.Dict))
		}
	}
	checkSpan := func(off, end uint32) error {
		if off > end || int(end) > len(p.Wires) {
			return fmt.Errorf("r1cs: program LC span [%d,%d) out of pool range %d", off, end, len(p.Wires))
		}
		for k := off; k < end; k++ {
			if written[p.Wires[k]] == 0 {
				return fmt.Errorf("r1cs: program reads wire %d before it is written", p.Wires[k])
			}
		}
		return nil
	}
	for l := 0; l+1 < len(p.Levels); l++ {
		lo, hi := p.Levels[l], p.Levels[l+1]
		// Reads check against wires written strictly before this level,
		// then the level's outputs are marked — matching Solve's
		// parallel-within-level execution model.
		for k := lo; k < hi; k++ {
			in := &p.Instrs[k]
			if err := checkSpan(in.AOff, in.AEnd); err != nil {
				return err
			}
			if in.Op == OpMul {
				if err := checkSpan(in.BOff, in.BEnd); err != nil {
					return err
				}
			}
		}
		for k := lo; k < hi; k++ {
			in := &p.Instrs[k]
			if in.NOut == 0 {
				return fmt.Errorf("r1cs: instruction %d writes no wires", k)
			}
			for i := uint32(0); i < in.NOut; i++ {
				if err := mark(in.Out+i, "program output"); err != nil {
					return err
				}
			}
		}
	}
	for wi := 0; wi < cs.NbWires; wi++ {
		if written[wi] == 0 {
			return fmt.Errorf("r1cs: wire %d is neither an input nor computed by the program", wi)
		}
	}
	return nil
}

// StripForSolve returns a solver-only copy of the system: the solver
// program, input layout, and dimensions survive, but the CSR term
// arrays — the dominant resident cost at paper scale — are dropped.
// The three matrices share one all-zero row-offset slice so dimension
// queries (NbConstraints, Dims) still answer correctly; RowEval,
// IsSatisfied, and QAP accumulation see empty rows and MUST NOT be
// used on the copy. The engine caches stripped systems when the
// matrices live in a CompiledSystemFile, which then serves every
// constraint read. The digest is carried over (it is a structural
// property of the full system, precomputed here so the copy never
// needs the matrices).
func (cs *CompiledSystem) StripForSolve() *CompiledSystem {
	emptyOffs := make([]uint32, cs.NbConstraints()+1)
	empty := Matrix{RowOffs: emptyOffs}
	out := &CompiledSystem{
		A: empty, B: empty, C: empty,
		NbPublic:      cs.NbPublic,
		NbWires:       cs.NbWires,
		PublicNames:   cs.PublicNames,
		PubInputs:     cs.PubInputs,
		PubInputNames: cs.PubInputNames,
		SecretInputs:  cs.SecretInputs,
		Program:       cs.Program,
	}
	out.digest = cs.Digest()
	out.digestOnce.Do(func() {})
	out.stripped = true
	return out
}

// Stripped reports whether this system is a StripForSolve copy whose
// CSR matrices are placeholders — consumers needing real constraint
// rows must read them from a CompiledSystemFile instead.
func (cs *CompiledSystem) Stripped() bool { return cs.stripped }
