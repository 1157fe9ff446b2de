package groth16

import (
	"errors"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/poly"
)

// Out-of-core quotient: the in-memory quotient holds its domain-sized
// vectors resident (tens of MB each at paper scale). quotientOOC works on
// the three disk vectors the row walk left instead, bounding resident
// memory to a QUARTER of a domain vector (the bounded-memory FFT's
// scratch) plus fixed streaming windows:
//
//	A·w  IFFT, coset FFT                    (out-of-core transforms)
//	B·w  IFFT, coset FFT, fold A·B          (streamed pointwise merge)
//	C·w  IFFT, coset FFT, fold (AB-C)/Z
//	IFFT coset → h coefficients, in A·w's file
//
// Field arithmetic is exact and fr encodings are canonical, so the h
// file holds bit for bit the coefficients the in-memory quotient would
// produce; the Z-section MSM then streams its scalars straight from the
// file, so h is never resident either. The returned file is ev's first
// (ev still owns it); the other two are closed as soon as they are
// folded in.
//
// sc is the quotient lane's scope; when on, the pipeline records one
// span per stage (each out-of-core transform with its split/mem/combine
// phases, the streamed pointwise merges) under an "ooc/" prefix.
func quotientOOC(ev *rowEvals, sc obs.Scope) (*poly.VecFile, error) {
	domain, n := ev.domain, int(ev.domain.N)
	// FFT scratch shared by every transform: a quarter domain peels two
	// decimation levels out-of-core, quartering the prover's largest
	// resident vector at the cost of one extra streaming pass.
	buf := make([]fr.Element, n/4)

	ooc := sc.Sub("ooc/")
	spAll := ooc.Sub("quotient").Span()
	defer spAll.End()

	toCoset := func(vf *poly.VecFile, name string) error {
		if err := domain.IFFTFile(vf, buf, ooc.Sub("ifft-").Sub(name)); err != nil {
			return err
		}
		return domain.FFTCosetFile(vf, buf, ooc.Sub("fft-coset-").Sub(name))
	}

	va := ev.file[0]
	if err := toCoset(va, "A"); err != nil {
		return nil, err
	}
	if err := toCoset(ev.file[1], "B"); err != nil {
		return nil, err
	}
	sp := ooc.Sub("mul-ab").Span()
	err := va.StreamMerge(ev.file[1], func(dst, b []fr.Element) {
		fr.MulVecInto(dst, dst, b)
	})
	sp.End()
	ev.closeFile(1)
	if err != nil {
		return nil, err
	}

	if err := toCoset(ev.file[2], "C"); err != nil {
		return nil, err
	}
	// On the coset, Z is the non-zero constant g^n - 1.
	zc := domain.VanishingOnCoset()
	var zcInv fr.Element
	zcInv.Inverse(&zc)
	sp = ooc.Sub("divide-z").Span()
	err = va.StreamMerge(ev.file[2], func(dst, c []fr.Element) {
		fr.SubScalarMulVecInto(dst, dst, c, &zcInv)
	})
	sp.End()
	ev.closeFile(2)
	if err != nil {
		return nil, err
	}

	if err := domain.IFFTCosetFile(va, buf, ooc.Sub("ifft-coset")); err != nil {
		return nil, err
	}

	// deg h ≤ n-2, so the top coefficient must vanish.
	var top [1]fr.Element
	if err := va.ReadAt(top[:], n-1); err != nil {
		return nil, err
	}
	if !top[0].IsZero() {
		return nil, errors.New("groth16: quotient has unexpected degree; witness inconsistent")
	}
	return va, nil
}
