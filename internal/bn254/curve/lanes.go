package curve

import (
	"math/big"
	"math/bits"

	"zkrownn/internal/bn254/fp"
)

// The batch-affine flushes' chord additions, eight at a time. Where the
// CPU has AVX-512 IFMA (supportIFMA), g1BatchAdder.flush and
// g2BatchAdder.flush hand their chord ops to amd64 kernels in blocks of
// laneWidth: lane j of block b is chord op 8b+j, and every F_p element
// of a block is one laneVec — five vectors of eight 52-bit limbs, one
// vector per limb, one lane per addition. An F_p² element is two
// laneVecs, one per coordinate A0, A1. The kernels multiply with
// VPMADD52LUQ/HUQ in Montgomery form with radix R' = 2²⁶⁰; fp's radix is
// R = 2²⁵⁶. The product code, gathers, packing and reductions are one
// toolkit (lanes_amd64.h) that both groups' kernels include.
//
// Bounds. A lane product REDC(u·v) = (u·v + m·p)/2²⁶⁰ with m < 2²⁶⁰ is
// below u·v/2²⁶⁰ + p, so it is below 2p whenever u·v < p·2²⁶⁰ ≈ 84.6·p²,
// and below (k+1)·p when u·v < k·p·2²⁶⁰. g1_lanes.go and g2_lanes.go
// keep the bounds of their products' operands.
//
// Domains. Inputs are fp elements x = a·R mod p. Their 16-fold, the
// integer x·2⁴ < 2²⁵⁸ (four modular doublings, none reduced), is a·R'
// mod p: the conversion into the R' domain is a shift. A product of an
// R-domain value by an R'-domain value is in the R domain again, since
// a·R · b·R' / R' = ab·R. So the lanes never convert out: denominators
// and their prefix chains live in the R' domain, slopes and sums in fp's
// own R domain, and a slope's R'-domain twin is the slope shifted by
// four bits.
//
// Per block, in two kernel calls around one scalar inversion: the
// forward pass forms each lane's denominator x₂ − x₁ and its running
// product over the blocks, prefix[b+1] = prefix[b]·den; the eight lane
// totals prefix[nb] join the flush's one batch inversion, their inverses
// coming back ×2⁸ into the R' domain as accInv; the backward pass
// recovers each block's inverse, inv = prefix[b]·accInv and accInv ·=
// den, and finishes λ, x₃ and y₃, canonical on the way out. Tangents,
// infinity and cancellation, and the chords past the last full block
// stay on the scalar formulas.

// Backend names the arithmetic under the batch-affine flushes, the inner
// loop of every MSM and of the setup's fixed-base multiplication in
// both groups: "ifma" when chord additions run on the AVX-512 IFMA lanes
// (G1's and G2's flushes alike), otherwise fp's multiplication backend,
// "adx" or "generic". Chosen by CPUID at startup; benchmark records
// carry it so numbers from different CPUs can be told apart.
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

const laneMask = 1<<52 - 1

var (
	// laneP, laneP2 and laneP4 are p, 2p and 4p in radix 2⁵², laneInv
	// is −p⁻¹ mod 2⁵² and laneOne is R' mod p, the lane domain's 1.
	// Derived at init from fp.Modulus(); the kernels broadcast them from
	// memory.
	laneP, laneP2, laneP4 [laneLimbs]uint64
	laneInv               uint64
	laneOne               [laneLimbs]uint64
	fpLimbs               [fp.Limbs]uint64 // p in radix 2⁶⁴
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
	splitLimbs(laneP4[:], new(big.Int).Lsh(p, 2), 52)
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

// setOne sets every lane of v to laneOne.
func (v *laneVec) setOne() {
	for i := range v {
		for j := range v[i] {
			v[i][j] = laneOne[i]
		}
	}
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
