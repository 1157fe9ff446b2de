package r1cs_test

import (
	"math/big"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// testRows: x·x = y, (y + x)·1 = out with out public.
// Wires: 0 = one, 1 = out, 2 = x, 3 = y.
func testRows() *r1cstest.Rows {
	T := r1cstest.T
	return &r1cstest.Rows{NbPublic: 2, NbWires: 4, Rows: []r1cstest.Row{
		{A: []r1cstest.Term{T(2, 1)}, B: []r1cstest.Term{T(2, 1)}, C: []r1cstest.Term{T(3, 1)}},
		{A: []r1cstest.Term{T(3, 1), T(2, 1)}, B: []r1cstest.Term{T(0, 1)}, C: []r1cstest.Term{T(1, 1)}},
	}}
}

func testWitness(x uint64) []fr.Element {
	w := make([]fr.Element, 4)
	w[0].SetOne()
	w[2].SetUint64(x)
	w[3].Mul(&w[2], &w[2])
	w[1].Add(&w[3], &w[2])
	return w
}

// frOf converts the oracle's integers to a stack witness.
func frOf(w []*big.Int) []fr.Element {
	out := make([]fr.Element, len(w))
	for i := range w {
		out[i].SetBigInt(w[i])
	}
	return out
}

func mustCSR(t *testing.T, rows *r1cstest.Rows) *r1cs.CompiledSystem {
	t.Helper()
	cs, err := r1cstest.CSR(rows)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestCSRMatchesOracle: the constructor keeps shape and numbering, the
// CSR digest is the oracle's byte for byte, and both sides agree on an
// honest and a tampered witness down to the violated row.
func TestCSRMatchesOracle(t *testing.T) {
	rows := testRows()
	cs := mustCSR(t, rows)
	if cs.NbConstraints() != len(rows.Rows) || cs.NbWires != rows.NbWires || cs.NbPublic != rows.NbPublic {
		t.Fatalf("shape mismatch: %+v vs %d rows, %d wires, %d public", cs.Dims(), len(rows.Rows), rows.NbWires, rows.NbPublic)
	}
	if got, want := cs.A.NbTerms()+cs.B.NbTerms()+cs.C.NbTerms(), 7; got != want {
		t.Fatalf("%d terms, want %d", got, want)
	}
	if cs.DigestHex() != r1cstest.Digest(rows) {
		t.Fatal("compiled digest differs from the oracle's")
	}
	if r1cstest.Digest(r1cstest.RowsOf(cs)) != r1cstest.Digest(rows) {
		t.Fatal("RowsOf(CSR(rows)) digests differently from rows")
	}

	w := testWitness(5)
	if ok, bad := cs.IsSatisfied(w); !ok {
		t.Fatalf("honest witness rejected at %d", bad)
	}
	if ok, bad := r1cstest.Satisfied(rows, r1cstest.Big(w)); !ok {
		t.Fatalf("oracle rejects the honest witness at %d", bad)
	}
	w[3].SetUint64(7)
	okRef, badRef := r1cstest.Satisfied(rows, r1cstest.Big(w))
	okCSR, badCSR := cs.IsSatisfied(w)
	if okRef || okCSR {
		t.Fatal("tampered witness accepted")
	}
	if badRef != badCSR {
		t.Fatalf("violation index mismatch: oracle %d, CSR %d", badRef, badCSR)
	}
}

func TestCSRSolveScatters(t *testing.T) {
	cs := mustCSR(t, testRows())
	// Constructor-built systems have no solver program: every wire is an
	// input, and Solve must hand the witness back.
	w := testWitness(9)
	if len(cs.PubInputs) != 1 || len(cs.SecretInputs) != 2 {
		t.Fatalf("unexpected input layout: %d public, %d secret", len(cs.PubInputs), len(cs.SecretInputs))
	}
	asg := r1cs.Assignment{Public: w[1:cs.NbPublic], Secret: w[cs.NbPublic:]}
	solved, err := cs.SolveAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if !solved[i].Equal(&w[i]) {
			t.Fatalf("wire %d: solve %v != witness %v", i, solved[i], w[i])
		}
	}
	if _, err := cs.Solve(nil, asg.Secret); err == nil {
		t.Fatal("short public assignment accepted")
	}
}

func TestCSRRejectsInvalid(t *testing.T) {
	bad := testRows()
	bad.Rows[0].B[0].Wire = 99
	if _, err := r1cstest.CSR(bad); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

// TestOracleComparisonCanFail shows the two sides are not the same code
// agreeing with itself: corrupt one coefficient of the compiled fixture
// and the untouched oracle rows and the CSR part ways — on the digest,
// and on which witnesses pass — while each side, asked about the system
// it actually holds, names the right row. And in no case does the CSR
// accept a witness the oracle rejects for the same rows.
func TestOracleComparisonCanFail(t *testing.T) {
	rows := r1cstest.Cubic(5)
	cs := mustCSR(t, rows)
	w := r1cstest.CubicWitness(5, 3)
	if ok, _ := cs.IsSatisfied(w); !ok {
		t.Fatal("honest witness rejected")
	}

	// Row 2 is (x³ + x + 5)·1 = out; make the CSR say 6.
	six := fr.Element{}
	six.SetUint64(6)
	cs.A.Dict[cs.A.CoeffIdx[cs.A.RowOffs[2]+2]] = six
	corrupt := mustCSR(t, r1cstest.RowsOf(cs)) // fresh digest cache
	if corrupt.DigestHex() == r1cstest.Digest(rows) {
		t.Fatal("a changed coefficient left the CSR digest equal to the oracle's")
	}
	okRef, _ := r1cstest.Satisfied(rows, r1cstest.Big(w))
	okCSR, badCSR := corrupt.IsSatisfied(w)
	if !okRef || okCSR || badCSR != 2 {
		t.Fatalf("oracle on the true rows %v, CSR on the corrupted ones (%v, %d); want true and (false, 2)", okRef, okCSR, badCSR)
	}
	// The oracle, shown the corrupted rows, rejects at the same row.
	if ok, bad := r1cstest.Satisfied(r1cstest.RowsOf(corrupt), r1cstest.Big(w)); ok || bad != 2 {
		t.Fatalf("oracle on the corrupted rows: (%v, %d), want (false, 2)", ok, bad)
	}

	// Every single-wire perturbation of the honest witness: whatever the
	// oracle rejects, IsSatisfied rejects, at the same row.
	cs = mustCSR(t, rows)
	for j := range w {
		for _, delta := range []int64{1, -1, 1 << 40} {
			wb := r1cstest.Big(w)
			wb[j] = new(big.Int).Add(wb[j], big.NewInt(delta))
			okRef, badRef := r1cstest.Satisfied(rows, wb)
			okCSR, badCSR := cs.IsSatisfied(frOf(wb))
			if okRef {
				t.Fatalf("wire %d %+d: the oracle accepts a perturbed cubic witness", j, delta)
			}
			if okCSR || badCSR != badRef {
				t.Fatalf("wire %d %+d: oracle (%v, %d), CSR (%v, %d)", j, delta, okRef, badRef, okCSR, badCSR)
			}
		}
	}
}
