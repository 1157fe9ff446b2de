// Package lanes is the AVX-512 IFMA toolkit: field arithmetic eight
// elements at a time, and the kernels built on it, over two moduli.
// Where the CPU has AVX-512 IFMA (SupportIFMA), curve's batch-affine
// flushes hand their chord additions over F_p to the G1 and G2 kernels
// here, and fr hands its vector products and the FFT's twiddle
// butterflies over F_r to the F_r kernels (fr.go), in blocks of Width.
// Lane j of a flush block b is chord op 8b+j, and every F_p element of a
// block is one Vec — five vectors of eight 52-bit limbs, one vector per
// limb, one lane per addition. An F_p² element is two Vecs, one per
// coordinate A0, A1. The F_r kernels hold the same five limb vectors in
// registers, lane j being element 8b+j of a contiguous slice. The kernels
// multiply with VPMADD52LUQ/HUQ in Montgomery form with radix R' = 2²⁶⁰;
// fp's and fr's radix is R = 2²⁵⁶. The product code, gathers, transposed
// loads, packing and reductions are one toolkit (lanes_amd64.h) that
// every kernel includes, and the modulus reaches them as a Consts block,
// one per modulus.
//
// Bounds. A lane product REDC(u·v) = (u·v + m·p)/2²⁶⁰ with m < 2²⁶⁰ is
// below u·v/2²⁶⁰ + p, so it is below 2p whenever u·v < p·2²⁶⁰ ≈ 84.6·p²,
// and below (k+1)·p when u·v < k·p·2²⁶⁰; the same holds for r, whose
// limit is ≈ 84.6·r² too. g1.go, g2.go and fr.go tabulate every
// product's operand bounds, and TestKernelBounds recomputes those tables
// from the kernel text, each over its own modulus.
//
// Domains, here for the flushes; fr.go has the F_r kernels' own, which
// follow the same rule. Inputs are fp elements x = a·R mod p. Their
// 16-fold, the integer x·2⁴ < 2²⁵⁸ (four modular doublings, none
// reduced), is a·R' mod p: the conversion into the R' domain is a
// shift. A product of an
// R-domain value by an R'-domain value is in the R domain again, since
// a·R · b·R' / R' = ab·R. So the lanes never convert out: denominators
// and their prefix chains live in the R' domain, slopes and sums in fp's
// own R domain, and a slope's R'-domain twin is the slope shifted by
// four bits.
//
// Per block, in two kernel calls around one scalar inversion: the
// forward pass (G1Prefix, G2Prefix) forms each lane's denominator
// x₂ − x₁ and its running product over the blocks,
// prefix[b+1] = prefix[b]·den; the caller inverts the eight lane totals
// prefix[nb] with the rest of its flush and hands their inverses back
// ×2⁸, in the R' domain, as the scratch's AccInv; the backward pass
// (G1Finish, G2Finish) recovers each block's inverse,
// inv = prefix[b]·AccInv and AccInv ·= den, and finishes λ, x₃ and y₃,
// canonical on the way out. Tangents, infinity and cancellation, and the
// chords past the last full block stay on the caller's scalar formulas.
//
// The kernels take raw-limb memory: the flushes base pointers to the
// first coordinate of the buckets and of the points (a G1 point is 64
// bytes, X then Y; a G2 point 128, X.A0, X.A1, Y.A0, Y.A1), the bucket
// and point index of every lane op, and the prefix chain; the F_r
// kernels the first element of each contiguous slice.
package lanes

import (
	"math/big"
	"math/bits"

	"zkrownn/internal/cpu"
)

// SupportIFMA gates every lane kernel on AVX-512 IFMA: false off amd64
// and under purego, where the kernels are not compiled in. A variable
// rather than a constant so tests can run their callers' portable
// branch on IFMA hardware.
var SupportIFMA = cpu.X86HasAVX512IFMA

// Width is the number of elements, one per lane, a kernel step carries.
const Width = 8

// limbs is the number of 52-bit limbs of a lane element.
const limbs = 5

// Vec is one field element per lane: Vec[i][j] is limb i of lane j.
type Vec [limbs][Width]uint64

const mask = 1<<52 - 1

// Consts is the constant block of one modulus m, the kernels' only view
// of it: they address the block through a register, at the go_asm.h
// offsets of its fields.
type Consts struct {
	// p, p2 and p4 are m, 2m and 4m in radix 2⁵², inv is −m⁻¹ mod 2⁵².
	p, p2, p4 [limbs]uint64
	inv       uint64
	// one is R' mod m, the lane domain's 1; words is m in radix 2⁶⁴.
	one   [limbs]uint64
	words [4]uint64
	// perm holds the two VPERMT2Q permutations of the transposed loads
	// and stores (TPERMS): the same for every modulus.
	perm [2][Width]uint64
}

// NewConsts builds the constant block of the odd modulus m < 2²⁵⁴.
func NewConsts(m *big.Int) *Consts {
	c := new(Consts)
	splitLimbs(c.words[:], m, 64)
	splitLimbs(c.p[:], m, 52)
	splitLimbs(c.p2[:], new(big.Int).Lsh(m, 1), 52)
	splitLimbs(c.p4[:], new(big.Int).Lsh(m, 2), 52)
	one := new(big.Int).Lsh(big.NewInt(1), limbs*52)
	splitLimbs(c.one[:], one.Mod(one, m), 52)
	// Newton's iteration doubles the correct low bits of m₀⁻¹ from the 3
	// that m₀⁻¹ ≡ m₀ (mod 8) gives; five steps reach 96 ≥ 52.
	m0 := c.p[0]
	inv := m0
	for range 5 {
		inv *= 2 - m0*inv
	}
	c.inv = -inv & mask
	c.perm = [2][Width]uint64{{0, 4, 8, 12, 1, 5, 9, 13}, {2, 6, 10, 14, 3, 7, 11, 15}}
	return c
}

// splitLimbs writes v's little-endian limbs of the given bit width
// (at most 64) into l; v must fit.
func splitLimbs(l []uint64, v *big.Int, width uint) {
	t := new(big.Int).Set(v)
	m := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), width), big.NewInt(1))
	for i := range l {
		l[i] = new(big.Int).And(t, m).Uint64()
		t.Rsh(t, width)
	}
	if t.Sign() != 0 {
		panic("lanes: constant does not fit its limbs")
	}
}

// SetOne sets every lane of v to the lane domain's 1.
func (c *Consts) SetOne(v *Vec) {
	for i := range v {
		for j := range v[i] {
			v[i][j] = c.one[i]
		}
	}
}

// Get unpacks lane j of v, normalized limbs of a value below 2m, into
// the radix-2⁶⁴ limbs of its canonical residue.
func (c *Consts) Get(v *Vec, j int) [4]uint64 {
	x := [4]uint64{
		v[0][j] | v[1][j]<<52,
		v[1][j]>>12 | v[2][j]<<40,
		v[2][j]>>24 | v[3][j]<<28,
		v[3][j]>>36 | v[4][j]<<16,
	}
	var t [4]uint64
	var b uint64
	t[0], b = bits.Sub64(x[0], c.words[0], 0)
	t[1], b = bits.Sub64(x[1], c.words[1], b)
	t[2], b = bits.Sub64(x[2], c.words[2], b)
	t[3], b = bits.Sub64(x[3], c.words[3], b)
	if b == 0 {
		return t
	}
	return x
}

// Set packs the radix-2⁶⁴ limbs of x (any value below 2²⁵⁶) into lane j.
func (v *Vec) Set(j int, x *[4]uint64) {
	v[0][j] = x[0] & mask
	v[1][j] = (x[0]>>52 | x[1]<<12) & mask
	v[2][j] = (x[1]>>40 | x[2]<<24) & mask
	v[3][j] = (x[2]>>28 | x[3]<<36) & mask
	v[4][j] = x[3] >> 16
}
