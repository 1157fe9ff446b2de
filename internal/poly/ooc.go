package poly

import (
	"fmt"
	"path/filepath"
	"strconv"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
)

// Bounded-memory FFT: the transforms below run over a disk-resident
// VecFile with a caller-chosen resident budget. Decimation-in-time
// levels are peeled off out-of-core —
//
//	X[k]      = Ê[k] + ω^k·Ô[k]
//	X[k+n/2]  = Ê[k] - ω^k·Ô[k]
//
// where Ê, Ô are the half-size DFTs (root ω²) of the even- and
// odd-indexed inputs — recursively, until a sub-transform fits the
// caller's scratch buffer and runs in memory with the ordinary
// butterfly network. Field arithmetic is exact and every fr value has
// a unique reduced Montgomery encoding, so the output equals the
// in-memory FFT of the same vector bit for bit; only the association
// of the work differs.
//
// Peak resident footprint: the scratch plus a few fixed streaming
// windows. A scratch of n/2 elements peels one level (two disk
// sub-vectors), n/4 peels two, and so on — each extra level trades one
// more streaming pass over the data for half the resident memory.

// oocSplit streams vf into its even- and odd-indexed halves, each a
// fresh disk vector beside vf.
func oocSplit(vf *VecFile, dir string) (evens, odds *VecFile, err error) {
	half := vf.Len() / 2
	if evens, err = CreateVecFile(dir, half); err != nil {
		return nil, nil, err
	}
	if odds, err = CreateVecFile(dir, half); err != nil {
		evens.Close()
		return nil, nil, err
	}
	fail := func(err error) (*VecFile, *VecFile, error) {
		evens.Close()
		odds.Close()
		return nil, nil, err
	}
	ew, ow := evens.NewWriter(), odds.NewWriter()
	wp := getWin()
	defer putWin(wp)
	win := *wp
	n := vf.Len()
	for start := 0; start < n; start += vecIOChunk {
		end := start + vecIOChunk
		if end > n {
			end = n
		}
		w := win[:end-start]
		if err := vf.ReadAt(w, start); err != nil {
			return fail(err)
		}
		// vecIOChunk is even, so windows never straddle a parity flip.
		for i := range w {
			if (start+i)&1 == 0 {
				ew.Append(&w[i])
			} else {
				ow.Append(&w[i])
			}
		}
	}
	if err := ew.Flush(); err != nil {
		return fail(fmt.Errorf("poly: out-of-core FFT split: %w", err))
	}
	if err := ow.Flush(); err != nil {
		return fail(fmt.Errorf("poly: out-of-core FFT split: %w", err))
	}
	return evens, odds, nil
}

// oocCombine merges the transformed halves into vf:
// vf[k] = E[k] + ω^k·O[k], vf[k+half] = E[k] - ω^k·O[k]. evens may be
// nil, in which case the first half resides in eBuf instead.
func oocCombine(vf *VecFile, evens *VecFile, eBuf []fr.Element, odds *VecFile, root *fr.Element) error {
	half := vf.Len() / 2
	op, ep, tp := getWin(), getWin(), getWin()
	defer putWin(op)
	defer putWin(ep)
	defer putWin(tp)
	ow, ew, twWin := *op, *ep, *tp
	for start := 0; start < half; start += vecIOChunk {
		end := start + vecIOChunk
		if end > half {
			end = half
		}
		c := end - start
		if err := odds.ReadAt(ow[:c], start); err != nil {
			return err
		}
		e := ew[:c]
		if evens != nil {
			if err := evens.ReadAt(e, start); err != nil {
				return err
			}
		} else {
			e = eBuf[start:end]
		}
		tw := twWin[:c]
		w := powUint64(*root, uint64(start))
		for i := range tw {
			tw[i] = w
			w.Mul(&w, root)
		}
		// (e, ow) ← (e + ω^k·o, e − ω^k·o) via the vector kernels. e is
		// a scratch window either way (ew, or a chunk of the caller's
		// discarded eBuf), so clobbering it in place is fine.
		fr.MulVecInto(ow[:c], ow[:c], tw)
		fr.ButterflyVec(e, ow[:c])
		if err := vf.WriteAt(e, start); err != nil {
			return err
		}
		if err := vf.WriteAt(ow[:c], start+half); err != nil {
			return err
		}
	}
	return nil
}

// fftFileCore runs the unscaled transform with the given root on vf.
// buf is the resident scratch; sub-transforms small enough to fit it
// run in memory, larger ones recurse with another out-of-core level.
// sc, when on, records a span per out-of-core phase (split, in-memory
// sub-transform, combine) under its label.
func fftFileCore(vf *VecFile, buf []fr.Element, root *fr.Element, sc obs.Scope) error {
	n := vf.Len()
	if n == 1 {
		return nil
	}
	if n <= len(buf) {
		// The whole transform fits the scratch: one read, one in-memory
		// butterfly network, one write.
		var sp *obs.Span
		if sc.On() {
			sp = sc.Sub("/mem" + strconv.Itoa(n)).Span()
		}
		defer sp.End()
		b := buf[:n]
		if err := vf.ReadAt(b, 0); err != nil {
			return err
		}
		d := Domain{N: uint64(n)}
		d.fftInner(b, root, obs.Scope{})
		return vf.WriteAt(b, 0)
	}
	half := n / 2
	dir := filepath.Dir(vf.f.Name())
	var root2 fr.Element
	root2.Square(root) // root of the half-size sub-DFTs

	var spSplit *obs.Span
	if sc.On() {
		spSplit = sc.Sub("/split" + strconv.Itoa(n)).Span()
	}
	if half <= len(buf) {
		// Last out-of-core level: both sub-transforms run in the
		// scratch, odds round-tripping through their spill file so the
		// evens can stay resident for the combine.
		efile, odds, err := oocSplit(vf, dir)
		spSplit.End()
		if err != nil {
			return err
		}
		defer efile.Close()
		defer odds.Close()
		var spMem *obs.Span
		if sc.On() {
			spMem = sc.Sub("/mem" + strconv.Itoa(half) + "x2").Span()
		}
		b := buf[:half]
		d := Domain{N: uint64(half)}
		if err := odds.ReadAt(b, 0); err != nil {
			return err
		}
		d.fftInner(b, &root2, obs.Scope{})
		if err := odds.WriteAt(b, 0); err != nil {
			return err
		}
		if err := efile.ReadAt(b, 0); err != nil {
			return err
		}
		d.fftInner(b, &root2, obs.Scope{})
		spMem.End()
		var spComb *obs.Span
		if sc.On() {
			spComb = sc.Sub("/combine" + strconv.Itoa(n)).Span()
		}
		defer spComb.End()
		return oocCombine(vf, nil, b, odds, root)
	}

	// Deeper: both halves recurse out-of-core.
	evens, odds, err := oocSplit(vf, dir)
	spSplit.End()
	if err != nil {
		return err
	}
	defer evens.Close()
	defer odds.Close()
	if err := fftFileCore(evens, buf, &root2, sc); err != nil {
		return err
	}
	if err := fftFileCore(odds, buf, &root2, sc); err != nil {
		return err
	}
	var spComb *obs.Span
	if sc.On() {
		spComb = sc.Sub("/combine" + strconv.Itoa(n)).Span()
	}
	defer spComb.End()
	return oocCombine(vf, evens, nil, odds, root)
}

// FFTFile evaluates the disk-resident coefficient vector on H in place,
// the out-of-core counterpart of FFT. buf is the resident scratch
// (any length; larger halves the number of streaming passes).
func (d *Domain) FFTFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	if err := d.checkFileLen(vf); err != nil {
		return err
	}
	s := obs.Opt(sc)
	sp := s.Span()
	defer sp.End()
	return fftFileCore(vf, buf, &d.Gen, s)
}

// IFFTFile interpolates disk-resident evaluations on H back to
// coefficients, the out-of-core counterpart of IFFT.
func (d *Domain) IFFTFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	if err := d.checkFileLen(vf); err != nil {
		return err
	}
	s := obs.Opt(sc)
	sp := s.Span()
	defer sp.End()
	if err := fftFileCore(vf, buf, &d.GenInv, s); err != nil {
		return err
	}
	nInv := d.NInv
	return vf.StreamUpdate(func(_ int, v []fr.Element) {
		fr.ScalarMulVecInto(v, v, &nInv)
	})
}

func (d *Domain) checkFileLen(vf *VecFile) error {
	if uint64(vf.Len()) != d.N {
		return fmt.Errorf("poly: out-of-core FFT input length %d != domain size %d", vf.Len(), d.N)
	}
	return nil
}

// MulPowersFile multiplies element i by s^i in place, streaming — the
// out-of-core counterpart of mulPowers.
func MulPowersFile(vf *VecFile, s *fr.Element) error {
	return vf.StreamUpdate(func(start int, v []fr.Element) {
		cur := powUint64(*s, uint64(start))
		for i := range v {
			v[i].Mul(&v[i], &cur)
			cur.Mul(&cur, s)
		}
	})
}

// FFTCosetFile evaluates the disk-resident coefficient vector on the
// coset g·H in place. The length is checked before the coset powers
// touch the file: a vector of the wrong length is rejected unmodified.
func (d *Domain) FFTCosetFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	if err := d.checkFileLen(vf); err != nil {
		return err
	}
	if err := MulPowersFile(vf, &d.CosetShift); err != nil {
		return err
	}
	return d.FFTFile(vf, buf, sc...)
}

// IFFTCosetFile interpolates disk-resident evaluations on the coset g·H
// back to coefficients in place.
func (d *Domain) IFFTCosetFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	if err := d.IFFTFile(vf, buf, sc...); err != nil {
		return err
	}
	return MulPowersFile(vf, &d.CosetShiftInv)
}
