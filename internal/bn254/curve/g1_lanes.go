package curve

import (
	"math/big"
	"math/bits"

	"zkrownn/internal/bn254/fp"
)

// The G1 flush's chord additions, eight at a time. Where the CPU has
// AVX-512 IFMA (supportIFMA), g1BatchAdder.flush hands its chord ops to
// an amd64 kernel in blocks of laneWidth: lane j of block b is chord op
// 8b+j, and every field element of a block is one laneVec — five
// vectors of eight 52-bit limbs, one vector per limb, one lane per
// addition. The kernel multiplies with VPMADD52LUQ/HUQ in Montgomery
// form with radix R' = 2²⁶⁰; fp's radix is R = 2²⁵⁶.
//
// Bounds. A lane product REDC(u·v) = (u·v + m·p)/2²⁶⁰ with m < 2²⁶⁰ is
// below u·v/2²⁶⁰ + p, so it is below 2p whenever u·v < p·2²⁶⁰. Every
// operand below is under 32p, and 2p·32p = 64p² < p·2²⁶⁰ because
// 64p < 2²⁶⁰; so any 256-bit input is valid, every product is below 2p,
// and values are reduced to canonical form only on the way out.
//
// Domains. Inputs are fp elements x = a·R mod p. Their 16-fold, the
// integer x·2⁴ < 2²⁵⁸ (four modular doublings, none reduced), is a·R'
// mod p: the conversion into the R' domain is a shift. A product of an
// R-domain value by an R'-domain value is in the R domain again, since
// a·R · b·R' / R' = ab·R. So the lanes never convert out: the
// denominators and their prefix chains live in the R' domain, the
// slopes, x₃ and y₃ in fp's own R domain, and λ's R'-domain twin is λ
// shifted by four bits.
//
// Per block, in two kernel calls around one scalar inversion:
//
//	lanePrefixAsm   den = (x₂ − x₁ + p)·2⁴            (R', < 32p)
//	                prefix[b+1] = prefix[b]·den       (R', < 2p)
//	(scalar)        the eight lane totals prefix[nb] join the flush's
//	                fp.BatchInvertInto; their inverses come back ×2⁸
//	                into the R' domain as accInv
//	laneFinishAsm   backwards over blocks:
//	                inv = prefix[b]·accInv, accInv ·= den  (R', < 2p)
//	                λ  = (y₂ − y₁ + p)·inv             (R,  < 2p)
//	                x₃ = λ·(λ·2⁴) + 2p − x₁ − x₂       (R,  < 4p → canonical)
//	                y₃ = (x₁ + p − x₃)·(λ·2⁴) + p − y₁ (R,  < 3p → canonical)
//
// Six lane products per addition against the scalar path's six fp
// products; eight of them cost what about one and a half fp.Mul do.
// Tangent ops, infinity and cancellation, and the chords past the last
// full block stay on the scalar formulas (flush).

// Backend names the arithmetic under the G1 batch-affine flush, the
// inner loop of every G1 MSM and of the setup's fixed-base
// multiplication: "ifma" when chord additions run on the AVX-512 IFMA
// lanes, otherwise fp's multiplication backend, "adx" or "generic".
// Chosen by CPUID at startup; benchmark records carry it so numbers
// from different CPUs can be told apart.
func Backend() string {
	if supportIFMA {
		return "ifma"
	}
	return fp.MulBackend()
}

// laneWidth is the number of chord additions one kernel step carries.
const laneWidth = 8

// laneLimbs is the number of 52-bit limbs of a lane element.
const laneLimbs = 5

// laneVec is one field element per lane: laneVec[i][j] is limb i of
// lane j.
type laneVec [laneLimbs][laneWidth]uint64

// laneScratch holds a block's lane temporaries between kernel steps,
// and accInv, the running inverse of laneFinishAsm's backward pass.
// Offsets are fixed in g1_lanes_amd64.s.
type laneScratch struct {
	accInv, den, inv, lamD, x1, x2, y1 laneVec
}

const laneMask = 1<<52 - 1

var (
	// laneP and laneP2 are p and 2p in radix 2⁵², laneInv is −p⁻¹ mod
	// 2⁵² and laneOne is R' mod p, the lane domain's 1. Derived at init
	// from fp.Modulus(); the kernel broadcasts them from memory.
	laneP, laneP2 [laneLimbs]uint64
	laneInv       uint64
	laneOne       [laneLimbs]uint64
	fpLimbs       [fp.Limbs]uint64 // p in radix 2⁶⁴
	// laneToRPrime is the fp element 2⁸: multiplying fp's inverse of a
	// lane total (an R'-domain raw value read as an R-domain one, i.e.
	// sixteen times the total) by it yields the total's inverse in the
	// R' domain.
	laneToRPrime = fp.NewElement(256)
)

func init() {
	p := fp.Modulus()
	splitLimbs(fpLimbs[:], p, 64)
	splitLimbs(laneP[:], p, 52)
	splitLimbs(laneP2[:], new(big.Int).Lsh(p, 1), 52)
	one := new(big.Int).Lsh(big.NewInt(1), laneLimbs*52)
	splitLimbs(laneOne[:], one.Mod(one, p), 52)
	// Newton's iteration doubles the correct low bits of p₀⁻¹ from the 3
	// that p₀⁻¹ ≡ p₀ (mod 8) gives; five steps reach 96 ≥ 52.
	p0 := laneP[0]
	inv := p0
	for range 5 {
		inv *= 2 - p0*inv
	}
	laneInv = -inv & laneMask
}

// splitLimbs writes v's little-endian limbs of the given bit width
// (at most 64) into l; v must fit.
func splitLimbs(l []uint64, v *big.Int, width uint) {
	t := new(big.Int).Set(v)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), width), big.NewInt(1))
	for i := range l {
		l[i] = new(big.Int).And(t, mask).Uint64()
		t.Rsh(t, width)
	}
	if t.Sign() != 0 {
		panic("curve: constant does not fit its limbs")
	}
}

// set packs the raw limbs of x (any value below 2²⁵⁶) into lane j.
func (v *laneVec) set(j int, x *fp.Element) {
	v[0][j] = x[0] & laneMask
	v[1][j] = (x[0]>>52 | x[1]<<12) & laneMask
	v[2][j] = (x[1]>>40 | x[2]<<24) & laneMask
	v[3][j] = (x[2]>>28 | x[3]<<36) & laneMask
	v[4][j] = x[3] >> 16
}

// get unpacks lane j, whose limbs are normalized and whose value is
// below 2²⁵⁶, into raw limbs.
func (v *laneVec) get(j int) fp.Element {
	return fp.Element{
		v[0][j] | v[1][j]<<52,
		v[1][j]>>12 | v[2][j]<<40,
		v[2][j]>>24 | v[3][j]<<28,
		v[3][j]>>36 | v[4][j]<<16,
	}
}

// g1Lanes is the lane path's scratch in a g1BatchAdder, allocated at the
// first flush that uses it.
type g1Lanes struct {
	bidx   []int32   // bucket index of each lane op
	prefix []laneVec // prefix[b]: product of the dens of blocks < b, per lane
	s      *laneScratch
}

// prefixPass runs the lane ops' forward pass and writes the eight lane
// totals, as canonical fp raw values, into totals. ops lists the lanes'
// op positions in the flush, a whole number of blocks.
func (l *g1Lanes) prefixPass(buckets []G1Affine, idx []int32, pts []G1Affine, ops []int32, totals []fp.Element) {
	nb := len(ops) / laneWidth
	if cap(l.bidx) < len(ops) {
		l.bidx = make([]int32, len(ops))
		l.prefix = make([]laneVec, nb+1)
		for i := range l.prefix[0] {
			for j := range l.prefix[0][i] {
				l.prefix[0][i][j] = laneOne[i] // the kernel never writes prefix[0]
			}
		}
		l.s = new(laneScratch)
	}
	bidx, prefix := l.bidx[:len(ops)], l.prefix[:nb+1]
	for i, k := range ops {
		bidx[i] = idx[k]
	}
	lanePrefixAsm(&buckets[0], &pts[0], &bidx[0], &ops[0], &prefix[0], nb)
	for j := range totals {
		totals[j] = prefix[nb].get(j)
		reduceBelow2p(&totals[j])
	}
}

// finishPass runs the lane ops' backward pass given the inverses of the
// totals prefixPass wrote, and stores every lane op's sum in its bucket.
func (l *g1Lanes) finishPass(buckets []G1Affine, pts []G1Affine, ops []int32, invs []fp.Element) {
	nb := len(ops) / laneWidth
	for j := range invs {
		var e fp.Element
		e.Mul(&invs[j], &laneToRPrime)
		l.s.accInv.set(j, &e)
	}
	laneFinishAsm(&buckets[0], &pts[0], &l.bidx[0], &ops[0], &l.prefix[0], nb, l.s)
}

// reduceBelow2p maps raw limbs below 2p to their canonical residue.
func reduceBelow2p(x *fp.Element) {
	var t fp.Element
	var b uint64
	t[0], b = bits.Sub64(x[0], fpLimbs[0], 0)
	t[1], b = bits.Sub64(x[1], fpLimbs[1], b)
	t[2], b = bits.Sub64(x[2], fpLimbs[2], b)
	t[3], b = bits.Sub64(x[3], fpLimbs[3], b)
	if b == 0 {
		*x = t
	}
}
