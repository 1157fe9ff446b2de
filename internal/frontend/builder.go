// Package frontend provides the circuit-construction API that replaces
// xJsnark in this reproduction: a builder that simultaneously emits R1CS
// constraints, solves the witness eagerly (in the style of xJsnark's
// circuit generator), and records a solver program so the compiled
// circuit can re-derive witnesses from fresh inputs without being
// rebuilt.
//
// Design contract: circuit code must be data-oblivious — the sequence of
// builder calls may not depend on input *values* (only on static shapes
// and parameters). Under that contract, running the same circuit
// function with dummy inputs (for Setup) and with real inputs (for
// Prove) yields the identical constraint system, which is what makes
// both the one-time trusted setup of ZKROWNN and the compile-once /
// solve-many split sound: Compile once per architecture, then
// CompiledSystem.Solve per proof.
//
// Variables carry sparse linear combinations over wires, so Add, Sub,
// and multiplication by constants are free; only Mul between two
// non-constant variables, assertions on a non-constant, and bit
// decompositions emit constraints — mirroring the cost model of the
// paper's circuits.
package frontend

import (
	"fmt"
	"math/big"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
)

// term is one coefficient·wire entry of a linearCombination — a sparse
// Σ coeff·wire over the builder's pre-permutation wire ids.
type term struct {
	wire  int
	coeff fr.Element
}

type linearCombination []term

// constraint is one rank-1 constraint a·b = c awaiting Compile's layout.
type constraint struct {
	a, b, c linearCombination
}

// Variable is a value in the circuit: a linear combination of wires plus
// its concrete value under the current input assignment.
//
// Linear combinations are immutable once built — every builder operation
// allocates fresh term slices and Compile copies (never mutates) them —
// so variables may be freely shared between constraints.
type Variable struct {
	lc  linearCombination
	val fr.Element
}

// Value returns the variable's value under the builder's current
// assignment (useful for debugging and for gadget-internal witnesses).
func (v *Variable) Value() fr.Element { return v.val }

// wireKind distinguishes the constant wire, declared inputs (bound at
// solve time), and computed wires (re-derived by the solver program).
type wireKind uint8

const (
	kindOne wireKind = iota
	kindPublicInput
	kindPublicOutput
	kindSecretInput
	kindInternal
)

// tapeInstr is one recorded solver step, in pre-permutation wire ids.
// The linear combinations alias variable LCs (safe: LCs are immutable).
type tapeInstr struct {
	op   r1cs.OpCode
	out  int // first output wire
	nOut int
	a, b linearCombination
}

// Builder accumulates constraints, wire values, and the solver tape.
type Builder struct {
	constraints []constraint
	values      []fr.Element
	kinds       []wireKind
	names       []string // parallel to values; "" for unnamed

	publicOrder []int // wire ids of public wires, in declaration order
	tape        []tapeInstr
	finalized   bool
	// err is the first assertion between constants that failed when it
	// was built; Compile returns it.
	err error
}

// NewBuilder returns an empty builder with the constant wire allocated.
func NewBuilder() *Builder {
	b := &Builder{}
	var one fr.Element
	one.SetOne()
	b.values = append(b.values, one)
	b.kinds = append(b.kinds, kindOne)
	b.names = append(b.names, "one")
	return b
}

// newWire allocates a wire with the given value and kind.
func (b *Builder) newWire(v fr.Element, k wireKind, name string) int {
	id := len(b.values)
	b.values = append(b.values, v)
	b.kinds = append(b.kinds, k)
	b.names = append(b.names, name)
	if k == kindPublicInput || k == kindPublicOutput {
		b.publicOrder = append(b.publicOrder, id)
	}
	return id
}

// record appends one solver instruction to the tape.
func (b *Builder) record(op r1cs.OpCode, out, nOut int, a, bb linearCombination) {
	b.tape = append(b.tape, tapeInstr{op: op, out: out, nOut: nOut, a: a, b: bb})
}

// single returns a variable referencing exactly one wire.
func (b *Builder) single(wire int) Variable {
	var one fr.Element
	one.SetOne()
	return Variable{
		lc:  linearCombination{{wire: wire, coeff: one}},
		val: b.values[wire],
	}
}

// PublicInput declares a named public input with the given value. The
// value is rebound per solve; the name groups inputs for rebinding (all
// wires declared under one name form an ordered vector).
func (b *Builder) PublicInput(name string, v fr.Element) Variable {
	return b.single(b.newWire(v, kindPublicInput, name))
}

// SecretInput declares a private input with the given value.
func (b *Builder) SecretInput(name string, v fr.Element) Variable {
	return b.single(b.newWire(v, kindSecretInput, name))
}

// PublicOutput exposes x as a named public wire constrained to equal it
// (one constraint). Unlike PublicInput the wire is *computed*: the
// solver program re-derives it from the inputs, so callers of
// CompiledSystem.Solve never supply output values.
func (b *Builder) PublicOutput(name string, x Variable) Variable {
	w := b.newWire(x.val, kindPublicOutput, name)
	out := b.single(w)
	b.record(r1cs.OpLC, w, 1, x.lc, nil)
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: b.One().lc,
		c: out.lc,
	})
	return out
}

// Constant returns a variable fixed to the field element c (a multiple
// of the constant wire; no new wire is allocated).
func (b *Builder) Constant(c fr.Element) Variable {
	return Variable{
		lc:  linearCombination{{wire: 0, coeff: c}},
		val: c,
	}
}

// ConstUint64 returns a constant variable.
func (b *Builder) ConstUint64(v uint64) Variable {
	var c fr.Element
	c.SetUint64(v)
	return b.Constant(c)
}

// One returns the constant 1.
func (b *Builder) One() Variable { return b.ConstUint64(1) }

// Zero returns the constant 0.
func (b *Builder) Zero() Variable {
	var z fr.Element
	return b.Constant(z)
}

// isConstant reports whether v is a pure multiple of the constant wire,
// returning the constant.
func isConstant(v *Variable) (fr.Element, bool) {
	if len(v.lc) == 0 {
		var z fr.Element
		return z, true
	}
	if len(v.lc) == 1 && v.lc[0].wire == 0 {
		return v.lc[0].coeff, true
	}
	var z fr.Element
	return z, false
}

// mergeLC combines linear combinations, summing coefficients per wire
// and dropping zeros. Inputs are not modified. Every builder-produced LC
// is sorted by wire with unique wires, so this is a k-way sorted merge —
// the compile-path hot spot, kept free of the map+sort of the naive
// implementation (two-pointer for the dominant pairwise case, a small
// binary heap of cursors for wide Sums).
func mergeLC(lcs ...linearCombination) linearCombination {
	k, total := 0, 0
	for _, lc := range lcs {
		if len(lc) > 0 {
			lcs[k] = lc
			k++
			total += len(lc)
		}
	}
	lcs = lcs[:k]
	switch k {
	case 0:
		return nil
	case 1:
		return dropZeros(lcs[0])
	case 2:
		return merge2(lcs[0], lcs[1])
	}
	return mergeK(lcs, total)
}

// dropZeros returns lc without zero-coefficient terms, aliasing the
// input when nothing is dropped (LCs are immutable, so sharing is safe).
func dropZeros(lc linearCombination) linearCombination {
	for i := range lc {
		if lc[i].coeff.IsZero() {
			out := make(linearCombination, i, len(lc)-1)
			copy(out, lc[:i])
			for _, t := range lc[i+1:] {
				if !t.coeff.IsZero() {
					out = append(out, t)
				}
			}
			return out
		}
	}
	return lc
}

// merge2 merges two sorted LCs with one linear pass.
func merge2(a, b linearCombination) linearCombination {
	out := make(linearCombination, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].wire < b[j].wire:
			if !a[i].coeff.IsZero() {
				out = append(out, a[i])
			}
			i++
		case a[i].wire > b[j].wire:
			if !b[j].coeff.IsZero() {
				out = append(out, b[j])
			}
			j++
		default:
			var c fr.Element
			c.Add(&a[i].coeff, &b[j].coeff)
			if !c.IsZero() {
				out = append(out, term{wire: a[i].wire, coeff: c})
			}
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		if !a[i].coeff.IsZero() {
			out = append(out, a[i])
		}
	}
	for ; j < len(b); j++ {
		if !b[j].coeff.IsZero() {
			out = append(out, b[j])
		}
	}
	return out
}

// mergeK merges k ≥ 3 sorted LCs through a binary min-heap of cursors
// keyed by each LC's current wire: O(total·log k) with three
// allocations (positions, heap, output).
func mergeK(lcs []linearCombination, total int) linearCombination {
	k := len(lcs)
	pos := make([]int, k)
	heap := make([]int, k)
	wireAt := func(li int) int { return lcs[li][pos[li]].wire }
	less := func(x, y int) bool { return wireAt(heap[x]) < wireAt(heap[y]) }
	siftDown := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && less(l, min) {
				min = l
			}
			if r < n && less(r, min) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := range heap {
		heap[i] = i
	}
	n := k
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}

	out := make(linearCombination, 0, total)
	for n > 0 {
		w := wireAt(heap[0])
		var c fr.Element
		for n > 0 && wireAt(heap[0]) == w {
			li := heap[0]
			c.Add(&c, &lcs[li][pos[li]].coeff)
			pos[li]++
			if pos[li] == len(lcs[li]) {
				heap[0] = heap[n-1]
				n--
			}
			if n > 0 {
				siftDown(0, n)
			}
		}
		if !c.IsZero() {
			out = append(out, term{wire: w, coeff: c})
		}
	}
	return out
}

// scaleLC returns lc scaled by c.
func scaleLC(lc linearCombination, c *fr.Element) linearCombination {
	if c.IsZero() {
		return nil
	}
	out := make(linearCombination, len(lc))
	for i, t := range lc {
		out[i].wire = t.wire
		out[i].coeff.Mul(&t.coeff, c)
	}
	return out
}

// Add returns a + b (free: no constraint).
func (b *Builder) Add(x, y Variable) Variable {
	var out Variable
	out.lc = mergeLC(x.lc, y.lc)
	out.val.Add(&x.val, &y.val)
	return out
}

// Sum returns the sum of all variables in one LC merge (avoids the
// quadratic blowup of chained pairwise Adds on wide reductions such as
// dense layers).
func (b *Builder) Sum(vs ...Variable) Variable {
	lcs := make([]linearCombination, len(vs))
	var val fr.Element
	for i := range vs {
		lcs[i] = vs[i].lc
		val.Add(&val, &vs[i].val)
	}
	return Variable{lc: mergeLC(lcs...), val: val}
}

// Sub returns a - b (free).
func (b *Builder) Sub(x, y Variable) Variable {
	var negOne fr.Element
	negOne.SetOne()
	negOne.Neg(&negOne)
	var out Variable
	out.lc = mergeLC(x.lc, scaleLC(y.lc, &negOne))
	out.val.Sub(&x.val, &y.val)
	return out
}

// Neg returns -a (free).
func (b *Builder) Neg(x Variable) Variable {
	return b.Sub(b.Zero(), x)
}

// MulConst returns c·a (free).
func (b *Builder) MulConst(x Variable, c fr.Element) Variable {
	var out Variable
	out.lc = scaleLC(x.lc, &c)
	out.val.Mul(&x.val, &c)
	return out
}

// Mul returns a·b. When either side is constant this is free; otherwise
// it allocates one internal wire and one R1CS constraint.
func (b *Builder) Mul(x, y Variable) Variable {
	if c, ok := isConstant(&x); ok {
		return b.MulConst(y, c)
	}
	if c, ok := isConstant(&y); ok {
		return b.MulConst(x, c)
	}
	var val fr.Element
	val.Mul(&x.val, &y.val)
	w := b.newWire(val, kindInternal, "")
	out := b.single(w)
	b.record(r1cs.OpMul, w, 1, x.lc, y.lc)
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: y.lc,
		c: out.lc,
	})
	return out
}

// Reduce collapses a wide linear combination into a single fresh wire
// with one constraint (lc · 1 = wire). Use after wide sums so downstream
// constraints stay sparse.
func (b *Builder) Reduce(x Variable) Variable {
	if len(x.lc) <= 1 {
		return x
	}
	w := b.newWire(x.val, kindInternal, "")
	out := b.single(w)
	b.record(r1cs.OpLC, w, 1, x.lc, nil)
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: b.One().lc,
		c: out.lc,
	})
	return out
}

// AssertEqual enforces a == b (one constraint). Between two constants
// it is checked here and emits no row; a failed check is Compile's
// error.
func (b *Builder) AssertEqual(x, y Variable) {
	if cx, ok := isConstant(&x); ok {
		if cy, ok := isConstant(&y); ok {
			if !cx.Equal(&cy) && b.err == nil {
				b.err = fmt.Errorf("frontend: constant assertion %v == %v fails", cx, cy)
			}
			return
		}
	}
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: b.One().lc,
		c: y.lc,
	})
}

// AssertBoolean enforces a ∈ {0, 1} (one constraint: a·(a-1) = 0). On
// a constant it is checked here and emits no row; a failed check is
// Compile's error.
func (b *Builder) AssertBoolean(x Variable) {
	if c, ok := isConstant(&x); ok {
		if !c.IsZero() && !c.IsOne() && b.err == nil {
			b.err = fmt.Errorf("frontend: constant %v asserted boolean", c)
		}
		return
	}
	am1 := b.Sub(x, b.One())
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: am1.lc,
		c: nil,
	})
}

// Inverse returns 1/a, enforcing a·out = 1 (a must be non-zero in a
// satisfiable witness). One constraint.
func (b *Builder) Inverse(x Variable) Variable {
	var inv fr.Element
	inv.Inverse(&x.val) // 0 for x == 0; constraint then unsatisfiable, as intended
	w := b.newWire(inv, kindInternal, "")
	out := b.single(w)
	b.record(r1cs.OpInv, w, 1, x.lc, nil)
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: out.lc,
		c: b.One().lc,
	})
	return out
}

// Div returns a/b (two constraints via inverse).
func (b *Builder) Div(x, y Variable) Variable {
	return b.Mul(x, b.Inverse(y))
}

// IsZero returns 1 if a == 0 else 0 (two constraints, one auxiliary
// witness wire).
func (b *Builder) IsZero(x Variable) Variable {
	// out = 1 - x·inv ;  x·out = 0
	var invVal fr.Element
	invVal.Inverse(&x.val)
	invW := b.newWire(invVal, kindInternal, "")
	inv := b.single(invW)
	b.record(r1cs.OpInv, invW, 1, x.lc, nil)

	var outVal fr.Element
	if x.val.IsZero() {
		outVal.SetOne()
	}
	outW := b.newWire(outVal, kindInternal, "")
	out := b.single(outW)
	b.record(r1cs.OpIsZero, outW, 1, x.lc, nil)

	// x·inv = 1 - out
	oneMinusOut := b.Sub(b.One(), out)
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: inv.lc,
		c: oneMinusOut.lc,
	})
	// x·out = 0
	b.constraints = append(b.constraints, constraint{
		a: x.lc,
		b: out.lc,
		c: nil,
	})
	return out
}

// Select returns cond·x + (1-cond)·y; cond must be boolean (callers
// enforce). One constraint.
func (b *Builder) Select(cond, x, y Variable) Variable {
	diff := b.Sub(x, y)
	prod := b.Mul(cond, diff)
	return b.Add(y, prod)
}

// ToBinary decomposes a into nbBits little-endian boolean wires,
// enforcing booleanity of each bit and the recomposition identity
// (nbBits+1 constraints). The value must fit in nbBits for a satisfiable
// witness.
func (b *Builder) ToBinary(x Variable, nbBits int) []Variable {
	val := x.val.ToBigInt()
	bits := make([]Variable, nbBits)
	// The bit wires are allocated as one contiguous block so the solver
	// tape covers them with a single bit-decompose instruction.
	first := len(b.values)
	for i := 0; i < nbBits; i++ {
		var bitVal fr.Element
		if val.Bit(i) == 1 {
			bitVal.SetOne()
		}
		w := b.newWire(bitVal, kindInternal, "")
		bits[i] = b.single(w)
	}
	b.record(r1cs.OpBits, first, nbBits, x.lc, nil)
	for i := 0; i < nbBits; i++ {
		b.AssertBoolean(bits[i])
	}
	recomposed := b.FromBinary(bits)
	b.AssertEqual(recomposed, x)
	return bits
}

// FromBinary recombines little-endian bits into a variable (free).
func (b *Builder) FromBinary(bits []Variable) Variable {
	terms := make([]Variable, len(bits))
	coeff := new(big.Int).SetUint64(1)
	for i := range bits {
		var c fr.Element
		c.SetBigInt(coeff)
		terms[i] = b.MulConst(bits[i], c)
		coeff.Lsh(coeff, 1)
	}
	return b.Sum(terms...)
}

// NbConstraints returns the number of constraints emitted so far.
func (b *Builder) NbConstraints() int { return len(b.constraints) }

// CompileResult is the output of Compile: the reusable compiled system,
// the input assignment recorded at build time, and the eager witness the
// builder computed along the way (identical to what Solve(Assignment)
// returns — the oracle the solver tests check against).
type CompileResult struct {
	System     *r1cs.CompiledSystem
	Assignment r1cs.Assignment
	Witness    []fr.Element
}

// Compile freezes the circuit into a CompiledSystem: wires are permuted
// so the statement (constant wire, then public wires in declaration
// order) occupies the leading indices required by Groth16, the
// constraints are laid out as CSR matrices, and the recorded solver tape
// is leveled for parallel replay. Nothing in the builder is mutated in
// place — the result owns fresh arrays. The builder must not be used
// afterwards.
func (b *Builder) Compile() (*CompileResult, error) {
	if b.finalized {
		return nil, fmt.Errorf("frontend: builder already finalized")
	}
	b.finalized = true
	if b.err != nil {
		return nil, b.err
	}

	m := len(b.values)
	perm := make([]uint32, m) // old wire -> new wire
	perm[0] = 0
	next := uint32(1)
	for _, w := range b.publicOrder {
		perm[w] = next
		next++
	}
	for w := 1; w < m; w++ {
		k := b.kinds[w]
		if k != kindPublicInput && k != kindPublicOutput {
			perm[w] = next
			next++
		}
	}

	witness := make([]fr.Element, m)
	names := make([]string, 1+len(b.publicOrder))
	names[0] = "one"
	for w := 0; w < m; w++ {
		witness[perm[w]] = b.values[w]
		if k := b.kinds[w]; k == kindPublicInput || k == kindPublicOutput {
			names[perm[w]] = b.names[w]
		}
	}

	cs := &r1cs.CompiledSystem{
		NbPublic:    1 + len(b.publicOrder),
		NbWires:     m,
		PublicNames: names,
	}

	// CSR matrices: one count pass, one remapped fill pass per matrix.
	// Term order within a row is the LC's (old-wire sorted) order; the
	// digest covers it.
	fill := func(sel func(*constraint) linearCombination) r1cs.Matrix {
		n := len(b.constraints)
		offs := make([]uint32, n+1)
		total := 0
		for i := range b.constraints {
			total += len(sel(&b.constraints[i]))
			offs[i+1] = uint32(total)
		}
		ci := r1cs.NewCoeffInterner()
		mx := r1cs.Matrix{RowOffs: offs, Wires: make([]uint32, total), CoeffIdx: make([]uint32, total)}
		k := 0
		for i := range b.constraints {
			for _, t := range sel(&b.constraints[i]) {
				mx.Wires[k] = perm[t.wire]
				mx.CoeffIdx[k] = ci.Intern(t.coeff)
				k++
			}
		}
		mx.Dict = ci.Dict()
		return mx
	}
	cs.A = fill(func(c *constraint) linearCombination { return c.a })
	cs.B = fill(func(c *constraint) linearCombination { return c.b })
	cs.C = fill(func(c *constraint) linearCombination { return c.c })

	// Input-binding layout and the recorded assignment, in declaration
	// order (pre-permutation wire order).
	asg := r1cs.Assignment{}
	for _, w := range b.publicOrder {
		if b.kinds[w] == kindPublicInput {
			cs.PubInputs = append(cs.PubInputs, perm[w])
			cs.PubInputNames = append(cs.PubInputNames, b.names[w])
			asg.Public = append(asg.Public, b.values[w])
		}
	}
	for w := 1; w < m; w++ {
		if b.kinds[w] == kindSecretInput {
			cs.SecretInputs = append(cs.SecretInputs, perm[w])
			asg.Secret = append(asg.Secret, b.values[w])
		}
	}

	prog, err := b.compileTape(perm)
	if err != nil {
		return nil, err
	}
	cs.Program = prog

	if err := cs.Validate(); err != nil {
		return nil, err
	}
	return &CompileResult{System: cs, Assignment: asg, Witness: witness}, nil
}

// compileTape remaps the recorded tape onto post-permutation wires,
// copies the LC spans into shared pools, and partitions the
// instructions into dependency levels for parallel replay.
func (b *Builder) compileTape(perm []uint32) (r1cs.Program, error) {
	m := len(b.values)
	nbInstrs := len(b.tape)

	// Dependency level per (pre-permutation) wire: inputs are level 0;
	// an instruction lives one level above the deepest wire it reads,
	// and its outputs inherit that level.
	wireLevel := make([]int32, m)
	instrLevel := make([]int32, nbInstrs)
	maxLevel := int32(0)
	lcLevel := func(lc linearCombination) int32 {
		lvl := int32(0)
		for _, t := range lc {
			if l := wireLevel[t.wire]; l > lvl {
				lvl = l
			}
		}
		return lvl
	}
	totalTerms := 0
	for i := range b.tape {
		in := &b.tape[i]
		lvl := lcLevel(in.a)
		totalTerms += len(in.a)
		if in.op == r1cs.OpMul {
			if l := lcLevel(in.b); l > lvl {
				lvl = l
			}
			totalTerms += len(in.b)
		}
		lvl++
		instrLevel[i] = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
		for j := 0; j < in.nOut; j++ {
			wireLevel[in.out+j] = lvl
		}
	}

	prog := r1cs.Program{
		Instrs:   make([]r1cs.Instr, nbInstrs),
		Wires:    make([]uint32, 0, totalTerms),
		CoeffIdx: make([]uint32, 0, totalTerms),
		Levels:   make([]uint32, maxLevel+1),
	}
	if nbInstrs == 0 {
		prog.Levels = []uint32{0}
		return prog, nil
	}

	// Counting sort by level (stable): Levels[l] is where level l+1's
	// instructions start.
	counts := make([]uint32, maxLevel+1)
	for _, lvl := range instrLevel {
		counts[lvl]++ // levels are 1-based; counts[0] stays 0
	}
	for l := int32(1); l <= maxLevel; l++ {
		prog.Levels[l] = prog.Levels[l-1] + counts[l]
	}
	cursor := make([]uint32, maxLevel+1)
	copy(cursor[1:], prog.Levels[:maxLevel])

	interner := r1cs.NewCoeffInterner()
	emitLC := func(lc linearCombination) (uint32, uint32) {
		off := uint32(len(prog.Wires))
		for _, t := range lc {
			prog.Wires = append(prog.Wires, perm[t.wire])
			prog.CoeffIdx = append(prog.CoeffIdx, interner.Intern(t.coeff))
		}
		return off, uint32(len(prog.Wires))
	}
	for i := range b.tape {
		in := &b.tape[i]
		slot := cursor[instrLevel[i]]
		cursor[instrLevel[i]]++
		out := perm[in.out]
		// Multi-output instructions rely on their block staying
		// contiguous after permutation; non-public wires keep relative
		// order, so this only fails on a (mis-)recorded public block.
		for j := 1; j < in.nOut; j++ {
			if perm[in.out+j] != out+uint32(j) {
				return r1cs.Program{}, fmt.Errorf("frontend: tape output block %d..%d not contiguous after permutation", in.out, in.out+in.nOut-1)
			}
		}
		ins := r1cs.Instr{Op: in.op, Out: out, NOut: uint32(in.nOut)}
		ins.AOff, ins.AEnd = emitLC(in.a)
		if in.op == r1cs.OpMul {
			ins.BOff, ins.BEnd = emitLC(in.b)
		}
		prog.Instrs[slot] = ins
	}
	prog.Dict = interner.Dict()
	return prog, nil
}
