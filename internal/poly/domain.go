// Package poly implements polynomial arithmetic over the BN254 scalar
// field: radix-2 FFT evaluation domains, coset transforms for quotient
// polynomials, Lagrange-basis evaluation for Groth16 trusted setup, and
// assorted helpers (Horner evaluation, vanishing polynomials, batch
// inversion wrappers).
package poly

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// Domain is a multiplicative subgroup H = {ω⁰, ..., ω^(N-1)} of F_r* of
// power-of-two order, together with the coset shift used to evaluate the
// Groth16 quotient polynomial off H.
type Domain struct {
	N             uint64
	LogN          int
	Gen           fr.Element // ω, primitive N-th root of unity
	GenInv        fr.Element
	NInv          fr.Element
	CosetShift    fr.Element // multiplicative generator g (outside H)
	CosetShiftInv fr.Element
}

// NewDomain returns the smallest power-of-two domain with at least
// minSize elements.
func NewDomain(minSize uint64) (*Domain, error) {
	if minSize == 0 {
		minSize = 1
	}
	n := nextPow2(minSize)
	w, err := fr.RootOfUnity(n)
	if err != nil {
		return nil, err
	}
	d := &Domain{N: n, LogN: bits.TrailingZeros64(n), Gen: w}
	d.GenInv.Inverse(&d.Gen)
	var nEl fr.Element
	nEl.SetUint64(n)
	d.NInv.Inverse(&nEl)
	d.CosetShift = fr.MultiplicativeGenerator()
	d.CosetShiftInv.Inverse(&d.CosetShift)
	return d, nil
}

// nextPow2 returns the smallest power of two ≥ v.
func nextPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(v-1))
}

// Element returns ωⁱ.
func (d *Domain) Element(i uint64) fr.Element {
	return powUint64(d.Gen, i)
}

// powUint64 returns base^exp by square-and-multiply.
func powUint64(base fr.Element, exp uint64) fr.Element {
	var res fr.Element
	res.SetOne()
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			res.Mul(&res, &base)
		}
		base.Square(&base)
	}
	return res
}

// bitReverse permutes a into bit-reversed index order in place.
func bitReverse(a []fr.Element) {
	n := uint(len(a))
	shift := 64 - uint(bits.TrailingZeros(n))
	for i := uint(0); i < n; i++ {
		j := bits.Reverse64(uint64(i)) >> shift
		if uint64(i) < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// twiddlePool recycles the flat twiddle tables between fftInner calls.
// The out-of-core pipeline runs thousands of tile FFTs of identical
// size, so the table buffer is hot.
var twiddlePool VecPool

// fftTwiddles builds the flat twiddle table for an n-point FFT (n ≥ 4,
// power of two) with the given root of unity. The level with butterfly
// half-width h occupies tw[h-1 : 2h-1] and holds (root^(n/2h))^j for
// j < h. Only the top level (h = n/2, the plain powers of root,
// powersInto) costs field multiplications; every lower level is a
// strided gather from it, since its twiddle step is a power of the top
// level's. The table is keyed off the root argument, not the Domain —
// the out-of-core tile FFTs run on ad-hoc domains whose only valid field
// is N.
func fftTwiddles(n int, root *fr.Element) []fr.Element {
	tw := twiddlePool.Get(n - 1)
	top := tw[n/2-1:]
	par.Range(n/2, func(js, je int) {
		powersInto(top[js:je], powUint64(*root, uint64(js)), *root)
	})
	for half := n / 4; half >= 1; half >>= 1 {
		level := tw[half-1 : 2*half-1]
		stride := (n / 2) / half
		for j := range level {
			level[j] = top[j*stride]
		}
	}
	return tw
}

// fftInner runs the iterative Cooley-Tukey butterfly network with the
// given root of unity (ω for forward, ω⁻¹ for inverse). Twiddles come
// precomputed from a pooled flat table, so the inner loops are pure
// vector kernels (fr.TwiddleButterflyVec). Every level is one
// data-parallel fork: early levels have many independent blocks (split
// across blocks), late levels have few wide blocks (their butterflies
// split evenly, ranges crossing block boundaries).
//
// sc, when on, records one span per butterfly level under its label —
// the per-level FFT attribution of the telemetry subsystem. The off
// path costs only the nil checks.
func (d *Domain) fftInner(a []fr.Element, root *fr.Element, sc obs.Scope) {
	n := len(a)
	if uint64(n) != d.N {
		panic(fmt.Sprintf("poly: FFT input length %d != domain size %d", n, d.N))
	}
	if n == 1 {
		return
	}
	bitReverse(a)

	// First level: twiddle ≡ 1, pure add/sub butterflies.
	sp := sc.Sub("/len2").Span()
	par.Range(n/2, func(bs, be int) {
		for b := bs; b < be; b++ {
			fr.Butterfly(&a[2*b], &a[2*b+1])
		}
	})
	sp.End()
	if n == 2 {
		return
	}

	tw := fftTwiddles(n, root)
	defer twiddlePool.Put(tw)
	for length := 4; length <= n; length <<= 1 {
		if sc.On() {
			sp = sc.Sub("/len" + strconv.Itoa(length)).Span()
		}
		half := length >> 1
		level := tw[half-1 : 2*half-1]
		nbBlocks := n / length
		if half < 8 {
			// Blocks too short for fr's vector kernels: one loop over
			// them, with no product for the twiddle ω⁰ = 1.
			par.Range(nbBlocks, func(bs, be int) {
				for b := bs; b < be; b++ {
					lo, hi := a[b*length:b*length+half], a[b*length+half:(b+1)*length]
					fr.Butterfly(&lo[0], &hi[0])
					for j := 1; j < half; j++ {
						hi[j].Mul(&hi[j], &level[j])
						fr.Butterfly(&lo[j], &hi[j])
					}
				}
			})
		} else if nbBlocks >= half {
			par.Range(nbBlocks, func(bs, be int) {
				for b := bs; b < be; b++ {
					start := b * length
					fr.TwiddleButterflyVec(a[start:start+half], a[start+half:start+length], level)
				}
			})
		} else {
			// Few wide blocks: one fork over all n/2 butterflies of the
			// level, each worker walking the block segments its range
			// covers — a fork per block would split ranges too narrow for
			// par.Range's grain, which then runs them serially.
			par.Range(n/2, func(js, je int) {
				for j := js; j < je; {
					start, off := j/half*length, j%half
					m := min(je-j, half-off)
					fr.TwiddleButterflyVec(a[start+off:start+off+m], a[start+half+off:start+half+off+m], level[off:off+m])
					j += m
				}
			})
		}
		if sc.On() {
			sp.End()
		}
	}
}

// The four transforms below, and their four …File forms in ooc.go, each
// take a trailing optional obs.Scope: pass tr.Scope("quotient/ifft-A")
// to record the call as one span under that label with one span per
// butterfly level (per out-of-core phase, for a …File form) beneath it;
// pass nothing to run untraced.

// FFT evaluates the coefficient vector a on H in place (natural order:
// out[i] = Σ a[j]·ω^(ij)).
func (d *Domain) FFT(a []fr.Element, sc ...obs.Scope) {
	s := obs.Opt(sc)
	sp := s.Span()
	d.fftInner(a, &d.Gen, s)
	sp.End()
}

// IFFT interpolates evaluations on H back to coefficients in place.
func (d *Domain) IFFT(a []fr.Element, sc ...obs.Scope) {
	s := obs.Opt(sc)
	sp := s.Span()
	d.fftInner(a, &d.GenInv, s)
	scalePowers(a, &d.NInv, nil)
	sp.End()
}

// scalePowers multiplies a[i] by c·s^i in place, taking c = 1 and s = 1
// when nil, in parallel chunks (scalePowersFrom).
func scalePowers(a []fr.Element, c, s *fr.Element) {
	if c == nil && s == nil {
		return
	}
	par.Range(len(a), func(lo, hi int) {
		scalePowersFrom(a[lo:hi], c, s, uint64(lo))
	})
}

// powerChunk is how many powers powersInto forms by a chain of scalar
// products before it switches to vector ones.
const powerChunk = 256

// powersInto sets dst[i] = first·s^i. The first powerChunk come from a
// chain of dependent scalar products; every later chunk is those times
// s^lo, one of fr's vector products per element.
func powersInto(dst []fr.Element, first, s fr.Element) {
	k := min(len(dst), powerChunk)
	if k == 0 {
		return
	}
	dst[0] = first
	for i := 1; i < k; i++ {
		dst[i].Mul(&dst[i-1], &s)
	}
	step := powUint64(s, uint64(k))
	cur := step
	for lo := k; lo < len(dst); lo += k {
		hi := min(lo+k, len(dst))
		fr.ScalarMulVecInto(dst[lo:hi], dst[:hi-lo], &cur)
		cur.Mul(&cur, &step)
	}
}

// powerPool recycles scalePowersFrom's powerChunk-element factors.
var powerPool VecPool

// scalePowersFrom multiplies a[i] by c·s^(start+i) in place on the
// calling goroutine, taking c = 1 and s = 1 when nil (not both). The
// factors come a chunk at a time: powersInto forms the first chunk's,
// and each next chunk's are the last ones times s^k, so every product
// past the first chunk's runs in fr's vector kernels.
func scalePowersFrom(a []fr.Element, c, s *fr.Element, start uint64) {
	if len(a) == 0 {
		return
	}
	if s == nil {
		fr.ScalarMulVecInto(a, a, c)
		return
	}
	first := powUint64(*s, start)
	if c != nil {
		first.Mul(&first, c)
	}
	buf := powerPool.Get(powerChunk)
	defer powerPool.Put(buf)
	f := buf[:min(len(a), powerChunk)]
	powersInto(f, first, *s)
	step := powUint64(*s, uint64(len(f)))
	for lo := 0; lo < len(a); lo += len(f) {
		if lo > 0 {
			fr.ScalarMulVecInto(f, f, &step)
		}
		chunk := a[lo:min(lo+len(f), len(a))]
		fr.MulVecInto(chunk, chunk, f[:len(chunk)])
	}
}

// FFTCoset evaluates the coefficient vector on the coset g·H in place.
func (d *Domain) FFTCoset(a []fr.Element, sc ...obs.Scope) {
	s := obs.Opt(sc)
	sp := s.Span()
	scalePowers(a, nil, &d.CosetShift)
	d.fftInner(a, &d.Gen, s)
	sp.End()
}

// IFFTCoset interpolates evaluations on the coset g·H back to
// coefficients in place: the inverse transform, then one pass that
// scales a[i] by N⁻¹·g⁻ⁱ.
func (d *Domain) IFFTCoset(a []fr.Element, sc ...obs.Scope) {
	s := obs.Opt(sc)
	sp := s.Span()
	d.fftInner(a, &d.GenInv, s)
	scalePowers(a, &d.NInv, &d.CosetShiftInv)
	sp.End()
}

// VanishingEval returns Z_H(x) = x^N - 1, computed with LogN squarings.
func (d *Domain) VanishingEval(x *fr.Element) fr.Element {
	xn := *x
	for i := 0; i < d.LogN; i++ {
		xn.Square(&xn)
	}
	var one fr.Element
	one.SetOne()
	xn.Sub(&xn, &one)
	return xn
}

// VanishingOnCoset returns the constant value Z_H(g·ωⁱ) = g^N - 1, which
// is independent of i — the property that makes coset division cheap.
func (d *Domain) VanishingOnCoset() fr.Element {
	return d.VanishingEval(&d.CosetShift)
}

// LagrangeBasisAt evaluates every Lagrange basis polynomial L_i at the
// point tau in O(N): L_i(τ) = ωⁱ·(τ^N - 1) / (N·(τ - ωⁱ)). If τ lands on
// the domain itself the closed form degenerates; the indicator vector is
// returned instead.
func (d *Domain) LagrangeBasisAt(tau *fr.Element) []fr.Element {
	n := int(d.N)
	out := make([]fr.Element, n)

	// denominators τ - ωⁱ
	dens := make([]fr.Element, n)
	onDomain := -1
	var onDomainMu sync.Mutex
	par.Range(n, func(start, end int) {
		wi := powUint64(d.Gen, uint64(start))
		for i := start; i < end; i++ {
			dens[i].Sub(tau, &wi)
			if dens[i].IsZero() {
				onDomainMu.Lock()
				onDomain = i
				onDomainMu.Unlock()
			}
			wi.Mul(&wi, &d.Gen)
		}
	})
	if onDomain >= 0 {
		out[onDomain].SetOne()
		return out
	}

	z := d.VanishingEval(tau)
	var zOverN fr.Element
	zOverN.Mul(&z, &d.NInv)

	invs := fr.BatchInvert(dens)
	par.Range(n, func(start, end int) {
		wi := powUint64(d.Gen, uint64(start))
		for i := start; i < end; i++ {
			out[i].Mul(&zOverN, &invs[i])
			out[i].Mul(&out[i], &wi)
			wi.Mul(&wi, &d.Gen)
		}
	})
	return out
}
