package groth16

import (
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/poly"
)

// Out-of-core quotient: the in-memory quotient holds its domain-sized
// vectors resident (tens of MB each at paper scale). quotientOOC runs the
// same sequence (see quotient) on the three disk vectors the row walk
// left instead, bounding resident memory to a QUARTER of a domain vector
// (the out-of-core transforms' scratch, pooled across proofs) plus fixed
// streaming windows:
//
//	A·w  IFFT, coset FFT                    (out-of-core transforms)
//	B·w  IFFT, coset FFT, fold A·B           (streamed pointwise merge)
//	     IFFT coset of A·B, in A·w's file
//	C·w  IFFT, fold (q - c)/Z → h
//
// Each transform is a split pass, four in-memory sub-transforms and a
// combine pass, with its sub-vectors in the second half of the vector's
// own file. Field arithmetic is exact and fr encodings are canonical, so
// the h file holds bit for bit the coefficients the in-memory quotient
// would produce; the Z-section MSM then streams its scalars straight from
// the file, so h is never resident either. The returned file is ev's
// first (ev still owns it); the other two are closed as soon as they are
// folded in.
//
// sc is the quotient lane's scope; when on, the pipeline records one
// span per stage (each out-of-core transform with its split/mem/combine
// phases, the streamed pointwise merges) under an "ooc/" prefix.
func quotientOOC(ev *rowEvals, sc obs.Scope) (*poly.VecFile, error) {
	domain, n := ev.domain, int(ev.domain.N)
	// A quarter-domain scratch: four sub-transforms per transform, and a
	// quarter of the prover's largest resident vector.
	buf := quotientVecs.Get(n / 4)
	defer quotientVecs.Put(buf)

	ooc := sc.Sub("ooc/")
	spAll := ooc.Sub("quotient").Span()
	defer spAll.End()

	va, vb, vc := ev.file[0], ev.file[1], ev.file[2]
	// fold merges ev.file[k] into va pointwise and closes it.
	fold := func(name string, k int, fn func(dst, src []fr.Element)) error {
		sp := ooc.Sub(name).Span()
		defer sp.End()
		defer ev.closeFile(k)
		return va.StreamMerge(ev.file[k], fn)
	}
	zcInv := vanishingOnCosetInv(domain)
	for _, step := range []func() error{
		func() error { return domain.IFFTFile(va, buf, ooc.Sub("ifft-A")) },
		func() error { return domain.FFTCosetFile(va, buf, ooc.Sub("fft-coset-A")) },
		func() error { return domain.IFFTFile(vb, buf, ooc.Sub("ifft-B")) },
		func() error { return domain.FFTCosetFile(vb, buf, ooc.Sub("fft-coset-B")) },
		func() error { return fold("mul-ab", 1, func(dst, b []fr.Element) { fr.MulVecInto(dst, dst, b) }) },
		func() error { return domain.IFFTCosetFile(va, buf, ooc.Sub("ifft-coset")) },
		func() error { return domain.IFFTFile(vc, buf, ooc.Sub("ifft-C")) },
		func() error {
			return fold("divide-z", 2, func(dst, c []fr.Element) { fr.SubScalarMulVecInto(dst, dst, c, &zcInv) })
		},
	} {
		if err := step(); err != nil {
			return nil, err
		}
		if testHookQuotientStep != nil {
			testHookQuotientStep(ev)
		}
	}

	// deg h ≤ n-2, so the top coefficient must vanish.
	var top [1]fr.Element
	if err := va.ReadAt(top[:], n-1); err != nil {
		return nil, err
	}
	if !top[0].IsZero() {
		return nil, errQuotientDegree
	}
	return va, nil
}
