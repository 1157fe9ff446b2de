package groth16

import (
	"errors"
	"fmt"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// Out-of-core quotient: the in-memory quotient holds two domain-sized
// vectors resident (tens of MB each at paper scale). quotientOOC keeps
// every domain-sized vector in a disk file instead, bounding resident
// memory to HALF a domain vector (the bounded-memory FFT's scratch)
// plus fixed streaming windows:
//
//	A·w  → file, IFFT, coset FFT            (out-of-core transforms)
//	B·w  → file, IFFT, coset FFT, fold A·B  (streamed pointwise merge)
//	C·w  → file, IFFT, coset FFT, fold (AB-C)/Z
//	IFFT coset → h coefficient file
//
// Field arithmetic is exact and fr encodings are canonical, so the h
// file holds bit for bit the coefficients the in-memory quotient would
// produce; the Z-section MSM then streams its scalars straight from the
// file, so h is never resident either.
//
// sc is the prove's scope; when on, the pipeline records one span per
// stage (matrix evaluation, each out-of-core transform with its
// split/mem/combine phases, the streamed pointwise merges) under an
// "ooc/" prefix.
func quotientOOC(sys r1cs.Constraints, domainSize uint64, witness *witnessSrc, dir string, sc obs.Scope) (*poly.VecFile, error) {
	domain, err := poly.NewDomain(domainSize)
	if err != nil {
		return nil, err
	}
	if domain.N != domainSize {
		return nil, fmt.Errorf("groth16: domain size %d is not a power of two", domainSize)
	}
	n := int(domain.N)
	nbCons := sys.Dims().NbConstraints
	// FFT scratch shared by every transform: a quarter domain peels two
	// decimation levels out-of-core, quartering the prover's largest
	// resident vector at the cost of one extra streaming pass.
	buf := make([]fr.Element, n/4)

	rowWindow, ooc := sc.Sub("csr/row-window"), sc.Sub("ooc/")
	spAll := ooc.Sub("quotient").Span()
	defer spAll.End()

	// cosetEval evaluates one constraint matrix against the witness into
	// a fresh disk vector (rows [nbCons, n) zero) and carries it to the
	// coset, exactly as the in-memory quotient does. The matrix streams
	// in bounded row windows (a no-op view for resident systems); rows
	// evaluate in parallel when the witness is resident, serially when
	// it reads through the spill store's single-goroutine page cache.
	cosetEval := func(ms r1cs.MatrixStream, name string) (*poly.VecFile, error) {
		vf, err := poly.CreateVecFile(dir, n)
		if err != nil {
			return nil, err
		}
		sp := ooc.Sub("eval-").Sub(name).Span()
		w := vf.NewWriter()
		win := &r1cs.RowWindow{}
		var evals []fr.Element
		for start := 0; start < nbCons; {
			end := ms.EndRowForTerms(start, r1cs.DefaultRowWindowTerms)
			if err := ms.LoadRows(win, start, end); err != nil {
				vf.Close()
				return nil, err
			}
			spw := rowWindow.Span()
			rows := end - start
			if cap(evals) < rows {
				evals = make([]fr.Element, rows)
			}
			ev := evals[:rows]
			if witness.mem != nil {
				par.Range(rows, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						ev[i] = win.RowEval(i, witness.mem)
					}
				})
			} else {
				for i := 0; i < rows; i++ {
					ev[i] = rowEvalSrc(win, i, witness)
				}
			}
			for i := range ev {
				w.Append(&ev[i])
			}
			spw.End()
			start = end
		}
		if err := witness.fileErr(); err != nil {
			vf.Close()
			return nil, err
		}
		var zero fr.Element
		for i := nbCons; i < n; i++ {
			w.Append(&zero)
		}
		if err := w.Flush(); err != nil {
			vf.Close()
			return nil, fmt.Errorf("groth16: quotient eval spill: %w", err)
		}
		sp.End()
		if err := domain.IFFTFile(vf, buf, ooc.Sub("ifft-").Sub(name)); err != nil {
			vf.Close()
			return nil, err
		}
		if err := domain.FFTCosetFile(vf, buf, ooc.Sub("fft-coset-").Sub(name)); err != nil {
			vf.Close()
			return nil, err
		}
		return vf, nil
	}

	va, err := cosetEval(sys.MatA(), "A")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*poly.VecFile, error) {
		va.Close()
		return nil, err
	}

	vb, err := cosetEval(sys.MatB(), "B")
	if err != nil {
		return fail(err)
	}
	sp := ooc.Sub("mul-ab").Span()
	err = va.StreamMerge(vb, func(dst, b []fr.Element) {
		fr.MulVecInto(dst, dst, b)
	})
	sp.End()
	vb.Close()
	if err != nil {
		return fail(err)
	}

	vc, err := cosetEval(sys.MatC(), "C")
	if err != nil {
		return fail(err)
	}
	// On the coset, Z is the non-zero constant g^n - 1.
	zc := domain.VanishingOnCoset()
	var zcInv fr.Element
	zcInv.Inverse(&zc)
	sp = ooc.Sub("divide-z").Span()
	err = va.StreamMerge(vc, func(dst, c []fr.Element) {
		fr.SubScalarMulVecInto(dst, dst, c, &zcInv)
	})
	sp.End()
	vc.Close()
	if err != nil {
		return fail(err)
	}

	if err := domain.IFFTCosetFile(va, buf, ooc.Sub("ifft-coset")); err != nil {
		return fail(err)
	}

	// deg h ≤ n-2, so the top coefficient must vanish.
	var top [1]fr.Element
	if err := va.ReadAt(top[:], n-1); err != nil {
		return fail(err)
	}
	if !top[0].IsZero() {
		return fail(errors.New("groth16: quotient has unexpected degree; witness inconsistent"))
	}
	return va, nil
}
