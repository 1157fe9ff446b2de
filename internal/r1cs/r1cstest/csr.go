package r1cstest

import (
	"math/big"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
)

// CSR lays rows out as a compiled system with an empty solver program:
// every wire is an input (wires 1..NbPublic-1 public, the rest secret,
// in wire order), so Solve(w[1:NbPublic], w[NbPublic:]) scatters a full
// assignment w back unchanged. Rows, wires and terms keep their numbering
// and order, one coefficient dictionary per matrix in first-seen order.
// The error is CompiledSystem.Validate's verdict on the result.
func CSR(rows *Rows) (*r1cs.CompiledSystem, error) {
	cs := &r1cs.CompiledSystem{NbPublic: rows.NbPublic, NbWires: rows.NbWires}
	fill := func(sel func(*Row) []Term) r1cs.Matrix {
		m := r1cs.Matrix{RowOffs: make([]uint32, 1, len(rows.Rows)+1)}
		ci := r1cs.NewCoeffInterner()
		for i := range rows.Rows {
			for _, t := range sel(&rows.Rows[i]) {
				var c fr.Element
				c.SetBigInt(t.Coeff)
				m.Wires = append(m.Wires, uint32(t.Wire))
				m.CoeffIdx = append(m.CoeffIdx, ci.Intern(c))
			}
			m.RowOffs = append(m.RowOffs, uint32(len(m.Wires)))
		}
		m.Dict = ci.Dict()
		return m
	}
	cs.A = fill(func(r *Row) []Term { return r.A })
	cs.B = fill(func(r *Row) []Term { return r.B })
	cs.C = fill(func(r *Row) []Term { return r.C })
	for w := 1; w < rows.NbPublic; w++ {
		cs.PubInputs = append(cs.PubInputs, uint32(w))
	}
	cs.PubInputNames = make([]string, len(cs.PubInputs))
	for w := rows.NbPublic; w < rows.NbWires; w++ {
		cs.SecretInputs = append(cs.SecretInputs, uint32(w))
	}
	return cs, cs.Validate()
}

// RowsOf spells a compiled system's matrices back out as rows, so the
// oracle can be run over circuits the frontend built.
func RowsOf(cs *r1cs.CompiledSystem) *Rows {
	rows := &Rows{NbPublic: cs.NbPublic, NbWires: cs.NbWires, Rows: make([]Row, cs.NbConstraints())}
	terms := func(m *r1cs.Matrix, i int) []Term {
		var out []Term
		for k := m.RowOffs[i]; k < m.RowOffs[i+1]; k++ {
			out = append(out, Term{Wire: int(m.Wires[k]), Coeff: m.Dict[m.CoeffIdx[k]].ToBigInt()})
		}
		return out
	}
	for i := range rows.Rows {
		rows.Rows[i] = Row{A: terms(&cs.A, i), B: terms(&cs.B, i), C: terms(&cs.C, i)}
	}
	return rows
}

// DeclaredInputs lists a compiled system's secret input wires, the
// inputs Undetermined starts from beside the instance.
func DeclaredInputs(cs *r1cs.CompiledSystem) []int {
	out := make([]int, len(cs.SecretInputs))
	for i, w := range cs.SecretInputs {
		out[i] = int(w)
	}
	return out
}

// Big converts a witness to the oracle's integers.
func Big(w []fr.Element) []*big.Int {
	out := make([]*big.Int, len(w))
	for i := range w {
		out[i] = w[i].ToBigInt()
	}
	return out
}

// Cubic is the stack's standard toy circuit, x³ + x + k = out with out
// public. Wires: 0 = one, 1 = out, 2 = x, 3 = x², 4 = x³. Different k give
// different coefficients and therefore different digests.
func Cubic(k uint64) *Rows {
	kTerm := Term{Wire: 0, Coeff: new(big.Int).SetUint64(k)}
	return &Rows{NbPublic: 2, NbWires: 5, Rows: []Row{
		{A: []Term{T(2, 1)}, B: []Term{T(2, 1)}, C: []Term{T(3, 1)}},                 // x·x = x²
		{A: []Term{T(3, 1)}, B: []Term{T(2, 1)}, C: []Term{T(4, 1)}},                 // x²·x = x³
		{A: []Term{T(4, 1), T(2, 1), kTerm}, B: []Term{T(0, 1)}, C: []Term{T(1, 1)}}, // (x³ + x + k)·1 = out
	}}
}

// CubicWitness is Cubic(k)'s wire assignment for a given x.
func CubicWitness(k, x uint64) []fr.Element {
	w := make([]fr.Element, 5)
	w[0].SetOne()
	w[2].SetUint64(x)
	w[3].Mul(&w[2], &w[2])
	w[4].Mul(&w[3], &w[2])
	var kEl fr.Element
	kEl.SetUint64(k)
	w[1].Add(&w[4], &w[2])
	w[1].Add(&w[1], &kEl)
	return w
}
