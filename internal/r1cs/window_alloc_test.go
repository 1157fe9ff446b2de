//go:build !race

// The race detector makes sync.Pool drop items at random, so the pool
// cannot be held to zero allocations under it.

package r1cs

import (
	"math/rand"
	"path/filepath"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// TestRowWindowWalkAllocs holds a second walk over a CSR file to the
// walk's own bookkeeping: the windows and their decode scratch come back
// from the pool, so no term buffer is allocated again.
func TestRowWindowWalkAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := randomCompiled(t, rng, 400, 64)
	path := filepath.Join(t.TempDir(), "sys.csr")
	if err := WriteCompiledSystemFile(path, cs); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompiledSystemFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	w := make([]fr.Element, cs.NbWires)
	w[0].SetOne()
	walk := func() {
		if _, err := walkAll(cf, w, 50); err != nil {
			t.Fatal(err)
		}
	}
	walk()
	// One walk of three matrices would allocate three byte, three wire
	// and three coefficient buffers afresh; what is left is the window
	// slice and the walk's closures.
	if allocs := testing.AllocsPerRun(10, walk); allocs > 3 {
		t.Fatalf("a second walk over a CSR file allocates %.0f times, want at most 3", allocs)
	}
}
