package r1cs

import (
	"strings"
	"testing"
	"testing/quick"

	"zkrownn/internal/bn254/fr"
)

func frU(v uint64) fr.Element {
	var e fr.Element
	e.SetUint64(v)
	return e
}

// testSystem: x·x = y, (y + x)·1 = out with out public, every wire an
// input. Wires: 0 = one, 1 = out, 2 = x, 3 = y. The package's own tests
// write CSR literals (importing r1cstest here would be an import cycle);
// the row-level fixtures and the oracle comparisons live in the external
// test package beside this file.
func testSystem() *CompiledSystem {
	unit := func() []fr.Element { return []fr.Element{frU(1)} }
	return &CompiledSystem{
		A:             Matrix{RowOffs: []uint32{0, 1, 3}, Wires: []uint32{2, 3, 2}, CoeffIdx: []uint32{0, 0, 0}, Dict: unit()},
		B:             Matrix{RowOffs: []uint32{0, 1, 2}, Wires: []uint32{2, 0}, CoeffIdx: []uint32{0, 0}, Dict: unit()},
		C:             Matrix{RowOffs: []uint32{0, 1, 2}, Wires: []uint32{3, 1}, CoeffIdx: []uint32{0, 0}, Dict: unit()},
		NbPublic:      2,
		NbWires:       4,
		PublicNames:   []string{"one", "out"},
		PubInputs:     []uint32{1},
		PubInputNames: []string{"out"},
		SecretInputs:  []uint32{2, 3},
	}
}

func testWitness(x uint64) []fr.Element {
	w := make([]fr.Element, 4)
	w[0].SetOne()
	w[2].SetUint64(x)
	w[3].Mul(&w[2], &w[2])
	w[1].Add(&w[3], &w[2])
	return w
}

// evalMatrix is one row 10·w₀ + 2·w₁ + 4·w₂ followed by an empty row.
func evalMatrix() *Matrix {
	return &Matrix{
		RowOffs:  []uint32{0, 3, 3},
		Wires:    []uint32{0, 1, 2},
		CoeffIdx: []uint32{0, 1, 2},
		Dict:     []fr.Element{frU(10), frU(2), frU(4)},
	}
}

func TestEval(t *testing.T) {
	w := []fr.Element{frU(1), frU(3), frU(5)}
	m := evalMatrix()
	got := m.RowEval(0, w)
	want := frU(10 + 6 + 20)
	if !got.Equal(&want) {
		t.Fatalf("RowEval = %v, want 36", got)
	}
	if z := m.RowEval(1, w); !z.IsZero() {
		t.Fatal("empty row should evaluate to 0")
	}
}

func TestIsSatisfied(t *testing.T) {
	cs := testSystem()
	good := testWitness(6)
	if ok, _ := cs.IsSatisfied(good); !ok {
		t.Fatal("valid witness rejected")
	}
	bad := testWitness(6)
	bad[1] = frU(43)
	if ok, idx := cs.IsSatisfied(bad); ok || idx != 1 {
		t.Fatalf("invalid witness: ok=%v at %d, want rejection at row 1", ok, idx)
	}
	// Wrong length.
	if ok, _ := cs.IsSatisfied(good[:2]); ok {
		t.Fatal("short witness accepted")
	}
	// Constant wire must be 1.
	brokenOne := testWitness(6)
	brokenOne[0] = frU(2)
	if ok, _ := cs.IsSatisfied(brokenOne); ok {
		t.Fatal("witness with constant != 1 accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := testSystem().Validate(); err != nil {
		t.Fatal(err)
	}
	// NbPublic must include the constant wire.
	noOne := testSystem()
	noOne.NbPublic = 0
	if err := noOne.Validate(); err == nil {
		t.Fatal("NbPublic 0 accepted")
	}
	narrow := testSystem()
	narrow.NbPublic, narrow.NbWires = 5, 3
	if err := narrow.Validate(); err == nil {
		t.Fatal("NbWires < NbPublic accepted")
	}
}

// TestValidateRejectsMalformed: tests and the r1cstest constructor hand
// Validate CSR arrays nobody else has looked at, and everything after it
// (RowEval, IsSatisfied, groth16.Setup) indexes them unchecked — so each
// malformed shape must come back as an error, never as a panic here or a
// clean pass that faults later.
func TestValidateRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*CompiledSystem)
		want   string
	}{
		{"wire index out of range", func(cs *CompiledSystem) { cs.B.Wires[0] = 99 }, "wire index 99"},
		{"coefficient index outside the dictionary", func(cs *CompiledSystem) { cs.C.CoeffIdx[1] = 1 }, "coefficient index 1"},
		{"one matrix without row offsets", func(cs *CompiledSystem) { cs.B.RowOffs = nil }, "row counts differ"},
		{"row offsets do not start at zero", func(cs *CompiledSystem) { cs.A.RowOffs[0] = 1 }, "start at 1"},
		{"row offsets decrease", func(cs *CompiledSystem) { cs.A.RowOffs = []uint32{0, 5, 3} }, "decrease at row 1"},
		{"row offsets stop short of the terms", func(cs *CompiledSystem) { cs.A.RowOffs[2] = 2 }, "end at 2"},
		{"wires and coefficients differ in length", func(cs *CompiledSystem) { cs.A.CoeffIdx = cs.A.CoeffIdx[:2] }, "3 wires but 2 coeffs"},
		{"matrices differ in row count", func(cs *CompiledSystem) { cs.C.RowOffs = cs.C.RowOffs[:2] }, "row counts differ"},
	} {
		cs := testSystem()
		tc.mutate(cs)
		err := cs.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// The bare shape every hand-written "empty system" starts from.
	if err := (&CompiledSystem{NbPublic: 1, NbWires: 1}).Validate(); err == nil {
		t.Error("system with no row offsets accepted")
	}
}

func TestValidateCatchesBrokenProgram(t *testing.T) {
	cs := testSystem()
	// A program output colliding with a declared input must fail.
	cs.Program = Program{
		Instrs: []Instr{{Op: OpLC, Out: 3, NOut: 1}},
		Levels: []uint32{0, 1},
	}
	if err := cs.Validate(); err == nil {
		t.Fatal("double-assigned wire accepted")
	}
}

// TestLinearityQuick: RowEval must be linear in the witness.
func TestLinearityQuick(t *testing.T) {
	m := evalMatrix()
	f := func(a1, a2, b1, b2 uint64) bool {
		wa := []fr.Element{frU(1), frU(a1), frU(a2)}
		wb := []fr.Element{frU(1), frU(b1), frU(b2)}
		wsum := make([]fr.Element, 3)
		for i := range wsum {
			wsum[i].Add(&wa[i], &wb[i])
		}
		ea := m.RowEval(0, wa)
		eb := m.RowEval(0, wb)
		esum := m.RowEval(0, wsum)
		var want fr.Element
		want.Add(&ea, &eb)
		return esum.Equal(&want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
