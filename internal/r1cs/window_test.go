package r1cs

import (
	"math/rand"
	"path/filepath"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// walkAll runs one ForRowWindows walk over sys's three matrices and
// folds every window's row evaluations against w into one sum, so a
// walk reads every term it loads.
func walkAll(sys Constraints, w []fr.Element, maxTerms int) (fr.Element, error) {
	var acc fr.Element
	err := ForRowWindows(maxTerms, []MatrixStream{sys.MatA(), sys.MatB(), sys.MatC()}, func(wins []*RowWindow) error {
		for _, win := range wins {
			for i := 0; i < win.Rows; i++ {
				v := win.RowEval(i, w)
				acc.Add(&acc, &v)
			}
		}
		return nil
	})
	return acc, err
}

// TestRowWindowReuseLeavesResidentSystems walks a resident system and a
// different system's CSR file in turn through the same pooled windows. A
// resident walk points a window's Wires and CoeffIdx into the system's
// own arrays; a file walk that later decoded into them would overwrite
// the resident system. Its digest, satisfiability and row sums must not
// move, and the file walk must read its own terms.
func TestRowWindowReuseLeavesResidentSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nWires = 48
	mem := randomCompiled(t, rng, 200, nWires)
	other := randomCompiled(t, rng, 200, nWires)
	path := filepath.Join(t.TempDir(), "other.csr")
	if err := WriteCompiledSystemFile(path, other); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompiledSystemFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	w := make([]fr.Element, nWires)
	for i := range w {
		w[i].SetUint64(rng.Uint64())
	}
	w[0].SetOne()
	digest := mem.Digest()
	satisfied, firstBad := mem.IsSatisfied(w)
	wantMem, err := walkAll(mem, w, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wantFile, err := walkAll(other, w, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for _, maxTerms := range []int{5, 64, 1 << 20} {
			gotMem, err := walkAll(mem, w, maxTerms)
			if err != nil {
				t.Fatal(err)
			}
			gotFile, err := walkAll(cf, w, maxTerms)
			if err != nil {
				t.Fatal(err)
			}
			if !gotMem.Equal(&wantMem) || !gotFile.Equal(&wantFile) {
				t.Fatalf("round %d, window %d terms: row sums moved", round, maxTerms)
			}
		}
	}
	if mem.Digest() != digest {
		t.Fatal("a file walk wrote into the resident system's term arrays")
	}
	if ok, bad := mem.IsSatisfied(w); ok != satisfied || bad != firstBad {
		t.Fatalf("IsSatisfied changed from (%v, %d) to (%v, %d)", satisfied, firstBad, ok, bad)
	}
}
