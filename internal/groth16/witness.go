package groth16

import (
	"errors"
	"fmt"
	"sync/atomic"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
	"zkrownn/internal/poly"
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

// source adapts the wires [off, len) to a curve.ScalarSource, the one
// way a streamed key reads wire scalars, recording one "witness/stream"
// span per chunk read under sc, the prove's scope. A resident witness —
// handed to a streamed key only by tests — is copied chunk by chunk.
func (w *witnessSrc) source(off int, sc obs.Scope) curve.ScalarSource {
	sc = sc.Sub("witness/stream")
	return func(dst []fr.Element, start int) error {
		if w.mem != nil {
			copy(dst, w.mem[off+start:])
			return nil
		}
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

// rowEvals holds what the prover's one walk over the constraint rows
// produced: the evaluation vectors A·w, B·w and C·w over the FFT domain
// (rows [NbConstraints, n) zero), as three pooled resident vectors
// (in-memory key) or three disk vectors (streamed key). prove owns it
// and releases it on every path; between the fork and the join only the
// quotient lane touches it, and it reduces the vectors in place — the
// quotient's coefficients end up in the first.
type rowEvals struct {
	domain *poly.Domain
	mem    [3][]fr.Element
	file   [3]*poly.VecFile
}

// newRowEvals validates the key's domain against the system before
// anything is sized from it (the walk runs before checkShape).
func newRowEvals(domainSize uint64, nbCons int) (*rowEvals, error) {
	domain, err := poly.NewDomain(domainSize)
	if err != nil {
		return nil, err
	}
	if domain.N != domainSize {
		return nil, fmt.Errorf("groth16: domain size %d is not a power of two", domainSize)
	}
	if uint64(nbCons) > domainSize {
		return nil, fmt.Errorf("groth16: key domain size %d is below the system's %d constraints", domainSize, nbCons)
	}
	return &rowEvals{domain: domain}, nil
}

// release returns the pooled vectors and closes (removing) the disk
// vectors still held. Idempotent.
func (ev *rowEvals) release() {
	for k := range ev.mem {
		quotientVecs.Put(ev.mem[k])
		ev.mem[k] = nil
		ev.closeFile(k)
	}
}

func (ev *rowEvals) closeFile(k int) {
	if ev.file[k] != nil {
		ev.file[k].Close()
		ev.file[k] = nil
	}
}

// Test seams of the prover's schedule, nil outside tests.
var (
	// testHookRows receives, after each row window, the number of matrix
	// rows the walk evaluated in it (three per constraint).
	testHookRows func(rows int)
	// testHookQuotientLane runs first thing on the quotient lane, with the
	// evaluations it is about to consume.
	testHookQuotientLane func(ev *rowEvals)
	// testHookQuotientStep runs after each step of the out-of-core
	// quotient (a transform or a fold).
	testHookQuotientStep func(ev *rowEvals)
	// testHookHRead runs before each read of the h file by the Z-query
	// MSM, with the file and the first coefficient read.
	testHookHRead func(hf *poly.VecFile, start int)
)

// walkRows is the prover's single pass over the constraint rows: every
// row of A, B and C is evaluated against the witness once, checked
// (A·w ∘ B·w = C·w) and kept. The three matrices stream through
// lockstep row windows of at most maxTerms terms (a resident system
// aliases its arrays, so math.MaxInt makes the whole walk one window),
// evaluated maxRows rows at a time; window hands out where rows
// [start, start+rows) evaluate to, commit stores finished rows. Rows run
// in parallel when the witness is resident and serially when it reads
// through the spill store's single-goroutine page cache — which is read
// here and, from the prover, nowhere else. On a violation the walk stops
// and the error names the lowest violated row, whichever chunk or window
// found it.
func walkRows(sys r1cs.Constraints, w *witnessSrc, maxTerms, maxRows int, rowWindow obs.Scope,
	window func(start, rows int) (a, b, c []fr.Element), commit func(start int, a, b, c []fr.Element) error) error {
	if one := w.at(0); !one.IsOne() {
		if err := w.fileErr(); err != nil {
			return fmt.Errorf("groth16: constraint row walk: %w", err)
		}
		return errors.New("groth16: witness constant wire is not one")
	}
	each := par.Range
	if w.mem == nil {
		each = func(n int, f func(lo, hi int)) { f(0, n) }
	}
	err := r1cs.ForRowWindows(maxTerms,
		[]r1cs.MatrixStream{sys.MatA(), sys.MatB(), sys.MatC()},
		func(wins []*r1cs.RowWindow) error {
			sp := rowWindow.Span()
			defer sp.End()
			wa, wb, wc := wins[0], wins[1], wins[2]
			for lo := 0; lo < wa.Rows; lo += maxRows {
				n := min(maxRows, wa.Rows-lo)
				a, b, c := window(wa.Start+lo, n)
				var first atomic.Int64
				first.Store(int64(n))
				each(n, func(clo, chi int) {
					for i := clo; i < chi; i++ {
						a[i] = rowEvalSrc(wa, lo+i, w)
						b[i] = rowEvalSrc(wb, lo+i, w)
						c[i] = rowEvalSrc(wc, lo+i, w)
						var ab fr.Element
						ab.Mul(&a[i], &b[i])
						if !ab.Equal(&c[i]) {
							// Chunks scan ascending, so a chunk's first violation
							// is its minimum; the atomic min across chunks is the
							// window's.
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
				if testHookRows != nil {
					testHookRows(3 * n)
				}
				if err := w.fileErr(); err != nil {
					return err
				}
				if v := first.Load(); v < int64(n) {
					return unsatisfiedError(wa.Start + lo + int(v))
				}
				if err := commit(wa.Start+lo, a, b, c); err != nil {
					return err
				}
			}
			return nil
		})
	if _, unsatisfied := err.(unsatisfiedError); err != nil && !unsatisfied {
		err = fmt.Errorf("groth16: constraint row walk: %w", err)
	}
	return err
}

// unsatisfiedError is the walk's verdict on a witness that violates the
// constraint row it names.
type unsatisfiedError int

func (e unsatisfiedError) Error() string {
	return fmt.Sprintf("groth16: witness does not satisfy constraint %d", int(e))
}

func (w *witnessSrc) fileErr() error {
	if w.file != nil {
		return w.file.Err()
	}
	return nil
}
