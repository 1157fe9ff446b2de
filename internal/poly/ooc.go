package poly

import (
	"fmt"
	"math/bits"
	"strconv"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// Bounded-memory FFT: the transforms below run over a disk-resident
// VecFile with a caller-chosen resident scratch. With n = k·L and L the
// largest power of two the scratch holds, the input splits into k
// interleaved sub-vectors x_r[m] = x[r + k·m], each small enough for an
// in-memory transform, and
//
//	X[q + L·s] = Σ_r ω_k^(r·s) · ω^(r·q) · Y_r[q],   Y_r = DFT_L(x_r) at root ω^k,
//
// with ω_k = ω^L — the four-step decomposition. An out-of-core transform
// is one split pass (vf → the k sub-vectors), the k in-memory
// sub-transforms, each followed by its twiddles ω^(r·q), and one combine
// pass (a k-point DFT down every column q, written straight back into
// vf), whatever the ratio of n to the scratch. Scalings ride the passes
// that already hold the data: a coset's input powers and an inverse's
// 1/n go with the sub-transforms, an inverse coset's output powers with
// the combine. Field arithmetic is exact and every fr value has a unique
// reduced Montgomery encoding, so the output equals the in-memory FFT of
// the same vector bit for bit; only the association of the work differs.
//
// The sub-vectors live in the second half of vf's own file (elements
// [n, 2n)): a transform creates no file, and the space serves every later
// transform of the vector and goes with it on Close.
//
// Peak resident footprint: the scratch plus two pooled 1 MiB streaming
// windows (the split's, then the combine's k-1 rows of 2^15/k columns),
// and more only for a scratch so small that k exceeds 2^15. A smaller
// scratch means more sub-vectors, and shorter reads in the combine
// (2^15/k elements a row).

// fileTransform is one of the four out-of-core transforms.
type fileTransform struct {
	root  *fr.Element // ω (forward) or ω⁻¹ (inverse)
	scale *fr.Element // 1/n of an inverse transform, nil otherwise
	pre   *fr.Element // coset shift g multiplied into the input, nil otherwise
	post  *fr.Element // coset shift g⁻¹ multiplied into the output, nil otherwise
}

// testHookSplit runs after a four-step transform's split pass, in tests.
var testHookSplit func(vf *VecFile)

// The four …File transforms are the out-of-core counterparts of FFT,
// IFFT, FFTCoset and IFFTCoset: they transform a disk-resident vector in
// place with buf as the resident scratch (any length; a transform that
// fits runs in memory, and a larger scratch means fewer, longer reads).
// A vector whose length is not the domain's is rejected untouched. sc,
// when on, records the call and one span per phase (split, in-memory
// sub-transforms, combine — or the whole in-memory transform) under it.

// FFTFile evaluates the disk-resident coefficient vector on H in place.
func (d *Domain) FFTFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	return d.transformFile(vf, buf, fileTransform{root: &d.Gen}, sc)
}

// IFFTFile interpolates disk-resident evaluations on H back to
// coefficients in place.
func (d *Domain) IFFTFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	return d.transformFile(vf, buf, fileTransform{root: &d.GenInv, scale: &d.NInv}, sc)
}

// FFTCosetFile evaluates the disk-resident coefficient vector on the
// coset g·H in place.
func (d *Domain) FFTCosetFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	return d.transformFile(vf, buf, fileTransform{root: &d.Gen, pre: &d.CosetShift}, sc)
}

// IFFTCosetFile interpolates disk-resident evaluations on the coset g·H
// back to coefficients in place.
func (d *Domain) IFFTCosetFile(vf *VecFile, buf []fr.Element, sc ...obs.Scope) error {
	return d.transformFile(vf, buf, fileTransform{root: &d.GenInv, scale: &d.NInv, post: &d.CosetShiftInv}, sc)
}

func (d *Domain) transformFile(vf *VecFile, buf []fr.Element, t fileTransform, sc []obs.Scope) error {
	if uint64(vf.Len()) != d.N {
		return fmt.Errorf("poly: out-of-core FFT input length %d != domain size %d", vf.Len(), d.N)
	}
	s := obs.Opt(sc)
	sp := s.Span()
	defer sp.End()
	n := vf.Len()
	switch {
	case n == 1: // every transform of one element is the identity
		return nil
	case n <= len(buf):
		return t.resident(vf, buf[:n], s)
	}
	return t.fourStep(vf, buf, s)
}

// resident runs the whole transform in the scratch: one read, the
// in-memory transform, one write.
func (t *fileTransform) resident(vf *VecFile, b []fr.Element, sc obs.Scope) error {
	var sp *obs.Span
	if sc.On() {
		sp = sc.Sub("/mem" + strconv.Itoa(len(b))).Span()
	}
	defer sp.End()
	if err := vf.ReadAt(b, 0); err != nil {
		return err
	}
	scalePowers(b, nil, t.pre)
	(&Domain{N: uint64(len(b))}).fftInner(b, t.root, obs.Scope{})
	scalePowers(b, t.scale, t.post)
	return vf.WriteAt(b, 0)
}

// fourStep runs the transform out of core: split, the k sub-transforms
// (the last stays in buf for the combine), combine.
func (t *fileTransform) fourStep(vf *VecFile, buf []fr.Element, sc obs.Scope) error {
	n := vf.Len()
	if len(buf) == 0 {
		buf = make([]fr.Element, 1) // one-element sub-transforms: the combine is the whole DFT
	}
	sub := 1 << (bits.Len(uint(len(buf))) - 1)
	k := n / sub
	phase := func(name string) *obs.Span {
		if !sc.On() {
			return nil
		}
		return sc.Sub(name).Span()
	}

	sp := phase("/split" + strconv.Itoa(n))
	err := split(vf, k)
	sp.End()
	if err != nil {
		return err
	}
	if testHookSplit != nil {
		testHookSplit(vf)
	}

	sp = phase("/mem" + strconv.Itoa(sub) + "x" + strconv.Itoa(k))
	b := buf[:sub]
	subDomain := Domain{N: uint64(sub)}
	subRoot := powUint64(*t.root, uint64(k))
	// x_r is scaled by g^(r + k·m) for a coset (first g^r, step g^k) and
	// Y_r by ω^(r·q) (first 1, step ω^r), times 1/n for an inverse.
	var first, step, twiddle fr.Element
	first.SetOne()
	twiddle.SetOne()
	if t.pre != nil {
		step = powUint64(*t.pre, uint64(k))
	}
	for r := 0; r < k && err == nil; r++ {
		if err = vf.ReadAt(b, n+r*sub); err != nil {
			break
		}
		if t.pre != nil {
			scalePowers(b, &first, &step)
			first.Mul(&first, t.pre)
		}
		subDomain.fftInner(b, &subRoot, obs.Scope{})
		tw := &twiddle
		if r == 0 {
			tw = nil
		}
		scalePowers(b, t.scale, tw)
		twiddle.Mul(&twiddle, t.root)
		if r < k-1 {
			err = vf.WriteAt(b, n+r*sub)
		}
	}
	sp.End()
	if err != nil {
		return err
	}

	sp = phase("/combine" + strconv.Itoa(n))
	defer sp.End()
	return t.combine(vf, b, k)
}

// split streams vf into its k interleaved sub-vectors: element r + k·m
// goes to position m of sub-vector r, stored at element n + r·(n/k). A
// window of W elements (a multiple of k) lands as k contiguous runs of
// W/k, one per sub-vector.
func split(vf *VecFile, k int) error {
	n := vf.Len()
	sub := n / k
	w := min(n, max(vecIOChunk, k))
	inp, outp := getWinLen(w), getWinLen(w)
	defer putWin(inp)
	defer putWin(outp)
	in, out := (*inp)[:w], (*outp)[:w]
	per := w / k
	for start := 0; start < n; start += w {
		if err := vf.ReadAt(in, start); err != nil {
			return err
		}
		par.Range(w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = in[i%per*k+i/per]
			}
		})
		for r := 0; r < k; r++ {
			if err := vf.WriteAt(out[r*per:(r+1)*per], n+r*sub+start/k); err != nil {
				return err
			}
		}
	}
	return nil
}

// combine runs the k-point DFT down every column q of the twiddled
// sub-transforms — rows 0..k-2 from the spill, row k-1 still in last —
// and writes output row s to vf at s·(n/k) + q, times g^-(q + s·n/k) for
// an inverse coset. Columns go a window at a time: k-1 rows of w
// columns fill one pooled window.
func (t *fileTransform) combine(vf *VecFile, last []fr.Element, k int) error {
	n := vf.Len()
	sub := n / k
	w := max(1, min(sub, vecIOChunk/k))
	areap := getWinLen((k - 1) * w)
	defer putWin(areap)
	area := *areap
	// The DFT runs on the rows in bit-reversed order, so that its output
	// comes out in natural order: rows[s] is output row s.
	rows := make([][]fr.Element, k)
	shift := 64 - uint(bits.TrailingZeros(uint(k)))
	// tw[j] = ω_k^j, ω_k = root^(n/k).
	tw := make([]fr.Element, max(k/2, 1))
	wk := powUint64(*t.root, uint64(sub))
	tw[0].SetOne()
	for j := 1; j < len(tw); j++ {
		tw[j].Mul(&tw[j-1], &wk)
	}
	for q0 := 0; q0 < sub; q0 += w {
		cw := min(w, sub-q0)
		for r := 0; r < k; r++ {
			var row []fr.Element
			if r == k-1 {
				row = last[q0 : q0+cw]
			} else {
				row = area[r*w : r*w+cw]
				if err := vf.ReadAt(row, n+r*sub+q0); err != nil {
					return err
				}
			}
			rows[bits.Reverse64(uint64(r))>>shift] = row
		}
		par.Range(cw, func(lo, hi int) {
			for length := 2; length <= k; length <<= 1 {
				half, stride := length/2, k/length
				for start := 0; start < k; start += length {
					for j := 0; j < half; j++ {
						a, b := rows[start+j][lo:hi], rows[start+j+half][lo:hi]
						if j > 0 {
							fr.ScalarMulVecInto(b, b, &tw[j*stride])
						}
						fr.ButterflyVec(a, b)
					}
				}
			}
			if t.post != nil {
				for s, row := range rows {
					scalePowersFrom(row[lo:hi], nil, t.post, uint64(q0+lo+s*sub))
				}
			}
		})
		for s, row := range rows {
			if err := vf.WriteAt(row, s*sub+q0); err != nil {
				return err
			}
		}
	}
	return nil
}
