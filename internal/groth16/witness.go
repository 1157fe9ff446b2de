package groth16

import (
	"sync/atomic"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
	"zkrownn/internal/r1cs"
)

// witnessSrc is the prover's view of a full wire assignment: exactly
// one of mem (resident slice) or file (spilled r1cs.WitnessFile) is
// set. The streamed backend reads a spilled witness through the same
// ScalarSource path it already uses for disk-resident quotient
// scalars, so neither side of a wire-query MSM need be resident.
type witnessSrc struct {
	mem  []fr.Element
	file *r1cs.WitnessFile
}

func (w *witnessSrc) len() int {
	if w.mem != nil {
		return len(w.mem)
	}
	return w.file.Len()
}

// at returns wire i — the slow-path single-element read used outside
// hot loops (the constant-wire check).
func (w *witnessSrc) at(i uint32) fr.Element {
	if w.mem != nil {
		return w.mem[i]
	}
	return w.file.Get(i)
}

// source adapts the spilled wires [off, len) to a curve.ScalarSource,
// recording one "witness/stream" span per chunk read under sc, the
// prove's scope. (A resident witness is handed to the MSM as a slice.)
func (w *witnessSrc) source(off int, sc obs.Scope) curve.ScalarSource {
	sc = sc.Sub("witness/stream")
	return func(dst []fr.Element, start int) error {
		sp := sc.Span()
		err := w.file.ReadRange(dst, off+start)
		sp.End()
		return err
	}
}

// rowEvalSrc computes ⟨window row i, w⟩ for either witness residency.
func rowEvalSrc(win *r1cs.RowWindow, i int, w *witnessSrc) fr.Element {
	if w.mem != nil {
		return win.RowEval(i, w.mem)
	}
	wires, coeffs := win.Row(i)
	var acc, t fr.Element
	for k := range wires {
		wv := w.file.Get(wires[k])
		t.Mul(&win.Dict[coeffs[k]], &wv)
		acc.Add(&acc, &t)
	}
	return acc
}

// errSatisfyStop aborts the window walk once a violation is found.
var errSatisfyStop = &satisfyStopError{}

type satisfyStopError struct{}

func (*satisfyStopError) Error() string { return "groth16: satisfy walk stopped" }

// checkSatisfied verifies A·w ∘ B·w = C·w row by row. Resident system
// with resident witness takes the existing parallel CSR fast path;
// otherwise the three matrices stream through lockstep row windows
// (one "csr/row-window" span each), with rows parallel when the
// witness is resident and serial when it reads through the spill
// store's single-goroutine page cache. On failure the returned index
// is the first violated constraint, matching IsSatisfied.
func checkSatisfied(sys r1cs.Constraints, w *witnessSrc, sc obs.Scope) (bool, int, error) {
	if cs, ok := sys.(*r1cs.CompiledSystem); ok && w.mem != nil {
		ok, bad := cs.IsSatisfied(w.mem)
		return ok, bad, nil
	}
	if one := w.at(0); !one.IsOne() {
		return false, -1, w.fileErr()
	}
	bad := -1
	err := r1cs.ForRowWindows(r1cs.DefaultRowWindowTerms,
		[]r1cs.MatrixStream{sys.MatA(), sys.MatB(), sys.MatC()},
		func(wins []*r1cs.RowWindow) error {
			sp := sc.Sub("csr/row-window").Span()
			defer sp.End()
			wa, wb, wc := wins[0], wins[1], wins[2]
			n := wa.Rows
			if w.mem != nil {
				var first atomic.Int64
				first.Store(int64(n))
				par.Range(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						a := wa.RowEval(i, w.mem)
						b := wb.RowEval(i, w.mem)
						c := wc.RowEval(i, w.mem)
						var ab fr.Element
						ab.Mul(&a, &b)
						if !ab.Equal(&c) {
							for {
								cur := first.Load()
								if int64(i) >= cur || first.CompareAndSwap(cur, int64(i)) {
									break
								}
							}
							return
						}
					}
				})
				if v := first.Load(); v < int64(n) {
					bad = wa.Start + int(v)
					return errSatisfyStop
				}
				return nil
			}
			for i := 0; i < n; i++ {
				a := rowEvalSrc(wa, i, w)
				b := rowEvalSrc(wb, i, w)
				c := rowEvalSrc(wc, i, w)
				var ab fr.Element
				ab.Mul(&a, &b)
				if !ab.Equal(&c) {
					bad = wa.Start + i
					return errSatisfyStop
				}
			}
			return w.fileErr()
		})
	if err == errSatisfyStop {
		return false, bad, w.fileErr()
	}
	if err != nil {
		return false, 0, err
	}
	return true, 0, w.fileErr()
}

func (w *witnessSrc) fileErr() error {
	if w.file != nil {
		return w.file.Err()
	}
	return nil
}
