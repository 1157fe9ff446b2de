// Package pairing implements the optimal ate pairing on BN254
// (alt_bn128): e: G1 × G2 → GT ⊂ F_p¹².
//
// # Miller loop
//
// The Miller function runs over NAF(6x₀+2) with affine twist-point
// arithmetic, followed by the two BN end steps (+ψ(Q), -ψ²(Q)). Every
// step contributes one line through the running multiple of Q, assembled
// through the D-type untwist (x, y) → (x·w², y·w³) as the sparse F_p¹²
// element yP - λ·xP·w + (λ·x₁ - y₁)·v·w. Everything about that line
// except (xP, yP) depends on Q alone, so the work is split in two:
//
//   - PrecomputeLines(Q) walks the chain once and records, per step, the
//     pair (λ, λ·x₁ - y₁) — or the vertical x = x₁ where the chain passes
//     through ∞, or nothing where it restarts from ∞ — in a Lines table
//     (≈ 12 kB). The table remembers the point it was built for.
//   - MillerProduct evaluates tables: ONE accumulator for all pairs of a
//     product, squared once per doubling step, with every pair's line
//     multiplied in through the sparse ext.E12.MulBy034.
//
// A verifier holding fixed G2 points (Groth16's γ and δ) builds their
// tables once and passes them as cached; a table offered for a different
// point than the one being paired is ignored and rebuilt, so a stale
// cache costs time, never soundness. A variable Q gets its table built
// on the spot — the same code path, there is no second Miller loop.
//
// The table holds exactly the λ the affine step-by-step chain computes:
// PrecomputeLines runs the point chain in Jacobian coordinates, converts
// every running point to affine with one shared inversion and the slope
// denominators with a second — affine coordinates and quotients are
// unique field elements, however they are reached. Sharing the squarings
// is the distributive law. So the Miller product is the same F_p¹²
// element, bit for bit, as the product of per-pair textbook loops, which
// reference_test.go keeps as the oracle.
//
// # Final exponentiation
//
// (p¹²-1)/r = (p⁶-1)·(p²+1)·(p⁴-p²+1)/r: an easy part of Frobenius and
// conjugation steps, then the hard exponent in its base-p digits,
//
//	(p⁴-p²+1)/r = p³ + (6x²+1)·p² + (-36x³-18x²-12x+1)·p + (-36x³-30x²-18x-2)
//
// evaluated as three exponentiations by the 63-bit x = BNParamX — each a
// signed-window chain over x's width-4 NAF (odd digits up to ±7, a
// negative one multiplying by the conjugate), 62 cyclotomic squarings
// and 16 multiplications where plain square-and-multiply over x's 28 set
// bits spends 27 — Frobenius maps, and the vector addition chain
// y₀·y₁²·y₂⁶·y₃¹²·y₄¹⁸·y₅³⁰·y₆³⁶ (Scott, Benger, Charlemagne, Dominguez
// Perez, Kachisa: "On the final exponentiation for calculating pairings
// on ordinary elliptic curves"). init() checks with math/big that this
// combination is EXACTLY (p⁴-p²+1)/r — not a multiple of it, as some
// faster chains compute — so GT values are those of the plain 761-bit
// exponentiation and every cached e(α, β) and serialized aggregate stays
// valid. BNParamX remains the only exponent constant in the source;
// everything else is derived from it and checked at start-up.
package pairing

import (
	"math/big"
	"slices"
	"sync"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
)

// BNParamX is the BN parameter x₀ with p = 36x₀⁴+36x₀³+24x₀²+6x₀+1.
const BNParamX = curve.BNParamX

// One entry of ateSteps: what the Miller loop does to the running point
// T at that step. Every step contributes one line (possibly none).
const (
	stepDouble  int8 = iota - 1 // T ← 2T, after squaring the accumulator
	stepAddQ                    // T ← T + Q       (NAF digit +1)
	stepSubQ                    // T ← T - Q       (NAF digit -1)
	stepAddPsi                  // T ← T + ψ(Q)    (first BN end step)
	stepSubPsi2                 // T ← T - ψ²(Q)   (second BN end step)
)

var (
	ateLoopNAF []int8  // NAF digits of 6x₀+2, most significant first
	ateSteps   []int8  // the loop over ateLoopNAF plus the end steps, unrolled
	bnX        big.Int // BNParamX
	xDigits    []int8  // width-4 NAF of BNParamX (expByX), most significant first
)

func init() {
	bnX.SetUint64(BNParamX)
	xDigits = windowNAF(BNParamX, 4)
	var back big.Int
	for _, d := range xDigits {
		back.Lsh(&back, 1)
		back.Add(&back, big.NewInt(int64(d)))
	}
	if back.Cmp(&bnX) != 0 || xDigits[0] != 1 {
		panic("pairing: the signed digits of x do not reconstruct BNParamX")
	}

	// 6x₀ + 2 (exceeds 64 bits).
	t := new(big.Int).Mul(&bnX, big.NewInt(6))
	t.Add(t, big.NewInt(2))
	ateLoopNAF = nafDigits(t)
	for _, d := range ateLoopNAF[1:] {
		ateSteps = append(ateSteps, stepDouble)
		switch d {
		case 1:
			ateSteps = append(ateSteps, stepAddQ)
		case -1:
			ateSteps = append(ateSteps, stepSubQ)
		}
	}
	ateSteps = append(ateSteps, stepAddPsi, stepSubPsi2)

	// Hard exponent (p⁴ - p² + 1)/r; divisibility is a BN-curve identity
	// and is asserted here.
	p := fp.Modulus()
	p2 := new(big.Int).Mul(p, p)
	p3 := new(big.Int).Mul(p2, p)
	hard := new(big.Int).Mul(p2, p2)
	hard.Sub(hard, p2)
	hard.Add(hard, big.NewInt(1))
	var rem big.Int
	hard.DivMod(hard, curve.GroupOrder(), &rem)
	if rem.Sign() != 0 {
		panic("pairing: r does not divide p⁴-p²+1")
	}

	// The exponents of y₀..y₆ as hardPart forms them, and the weights its
	// addition chain gives them. Collected by powers of p the sum is
	// p³ + (6x²+1)p² + (-36x³-18x²-12x+1)p + (-36x³-30x²-18x-2).
	mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
	add := func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }
	neg := func(a *big.Int) *big.Int { return new(big.Int).Neg(a) }
	x := &bnX
	x2 := mul(x, x)
	x3 := mul(x2, x)
	ys := [7]*big.Int{
		add(p, add(p2, p3)),      // y₀ = m^p · m^p² · m^p³
		big.NewInt(-1),           // y₁ = 1/m
		mul(x2, p2),              // y₂ = (m^x²)^p²
		neg(mul(x, p)),           // y₃ = 1/(m^x)^p
		neg(add(x, mul(x2, p))),  // y₄ = 1/(m^x · (m^x²)^p)
		neg(x2),                  // y₅ = 1/m^x²
		neg(add(x3, mul(x3, p))), // y₆ = 1/(m^x³ · (m^x³)^p)
	}
	sum := new(big.Int)
	for i, w := range [7]int64{1, 2, 6, 12, 18, 30, 36} {
		sum.Add(sum, mul(ys[i], big.NewInt(w)))
	}
	if sum.Cmp(hard) != 0 {
		panic("pairing: the x-chain does not compute (p⁴-p²+1)/r")
	}
	// ... and the same number in the base-p digits the package comment
	// quotes, λ₃p³ + λ₂p² + λ₁p + λ₀.
	poly := func(c3, c2, c1, c0 int64) *big.Int {
		v := mul(x3, big.NewInt(c3))
		v.Add(v, mul(x2, big.NewInt(c2)))
		v.Add(v, mul(x, big.NewInt(c1)))
		return v.Add(v, big.NewInt(c0))
	}
	digits := add(p3, mul(poly(0, 6, 0, 1), p2))
	digits.Add(digits, mul(poly(-36, -18, -12, 1), p))
	digits.Add(digits, poly(-36, -30, -18, -2))
	if digits.Cmp(hard) != 0 {
		panic("pairing: (p⁴-p²+1)/r is not p³ + (6x²+1)p² + (-36x³-18x²-12x+1)p + (-36x³-30x²-18x-2)")
	}
}

// nafDigits returns the non-adjacent form of n, most significant digit
// first.
func nafDigits(n *big.Int) []int8 {
	var digits []int8
	v := new(big.Int).Set(n)
	zero := big.NewInt(0)
	four := big.NewInt(4)
	for v.Cmp(zero) > 0 {
		var d int8
		if v.Bit(0) == 1 {
			var m big.Int
			m.Mod(v, four)
			d = int8(2 - m.Int64()) // 1 if n≡1, -1 if n≡3 (mod 4)
			if d == 1 {
				v.Sub(v, big.NewInt(1))
			} else {
				v.Add(v, big.NewInt(1))
			}
		}
		digits = append(digits, d)
		v.Rsh(v, 1)
	}
	// Reverse to MSB-first.
	for i, j := 0, len(digits)-1; i < j; i, j = i+1, j-1 {
		digits[i], digits[j] = digits[j], digits[i]
	}
	return digits
}

// windowNAF returns the width-w non-adjacent form of n, most significant
// digit first: every digit is 0 or odd with |d| < 2^(w-1), and any two
// nonzero digits are at least w positions apart.
func windowNAF(n uint64, w uint) []int8 {
	var digits []int8
	for n > 0 {
		var d int64
		if n&1 == 1 {
			d = int64(n & (1<<w - 1))
			if d >= 1<<(w-1) {
				d -= 1 << w
			}
			n -= uint64(d) // a negative digit adds |d|
		}
		digits = append(digits, int8(d))
		n >>= 1
	}
	slices.Reverse(digits)
	return digits
}

// line is one step's contribution to the Miller function, with
// everything that depends on Q already worked out.
type line struct {
	kind lineKind
	// lineSlope: the tangent or chord of twist slope λ through the
	// running point (x₁, y₁), as a = λ and b = λ·x₁ - y₁; at the G1 point
	// (xP, yP) it evaluates to yP - (a·xP)·w + b·v·w.
	// lineVertical: the vertical x = x₁, as b = -x₁; it evaluates to
	// xP + b·v (untwisted: xP - x₁·w²).
	a, b ext.E2
}

type lineKind uint8

const (
	lineNone     lineKind = iota // T was ∞ before an addition: T ← the addend, no line
	lineSlope                    // the general doubling or addition
	lineVertical                 // the step lands on ∞ (a 2-torsion T doubled, or T + (-T))
)

// mulInto multiplies f by the line evaluated at the G1 point p; negX is
// -p.X, computed once per pair.
func (l *line) mulInto(f *ext.E12, p *curve.G1Affine, negX *fp.Element) {
	switch l.kind {
	case lineSlope:
		var c3 ext.E2
		c3.MulByElement(&l.a, negX)
		f.MulBy034(&p.Y, &c3, &l.b)
	case lineVertical:
		var v ext.E12
		v.C0.B0.A0.Set(&p.X)
		v.C0.B1.Set(&l.b)
		f.Mul(f, &v)
	}
}

// Lines is the line table of one G2 point: what MillerProduct needs of Q
// to pair it with any number of G1 points. Immutable once built, so one
// table may serve concurrent verifications. It is derived data — about
// 12 kB against the point's 64 bytes — and is never serialized.
type Lines struct {
	q     curve.G2Affine
	lines []line // one per ateSteps entry; nil for q = ∞
}

// builtFor reports whether the table (nil = none) is the table of q.
func (t *Lines) builtFor(q *curve.G2Affine) bool { return t != nil && t.q.Equal(q) }

// PrecomputeLines builds the line table of q. Points outside the
// order-r subgroup are handled — the degenerate steps their chains can
// hit are recorded as such — so a table is exactly as forgiving as the
// step-by-step loop.
func PrecomputeLines(q *curve.G2Affine) *Lines {
	tbl := &Lines{q: *q}
	if q.IsInfinity() {
		return tbl
	}
	b := lineBuilds.Get().(*lineBuild)
	tbl.lines = make([]line, len(ateSteps))
	b.build(tbl.lines, q)
	lineBuilds.Put(b)
	return tbl
}

// lineBuild is the working set of one table build — the running points
// in Jacobian and affine form, the slopes' numerators and denominators,
// and the inverses — plus a table for MillerProduct to build an uncached
// point's lines into. A verifier builds B's table on every call, about
// 74 kB of it, so the sets are pooled rather than left to the collector.
type lineBuild struct {
	chain          []curve.G2Jac
	pts            []curve.G2Affine
	num, den, invs []ext.E2
	lines          []line
}

var lineBuilds = sync.Pool{New: func() any {
	n := len(ateSteps)
	return &lineBuild{
		chain: make([]curve.G2Jac, n),
		pts:   make([]curve.G2Affine, n),
		num:   make([]ext.E2, n),
		den:   make([]ext.E2, n),
		invs:  make([]ext.E2, n),
		lines: make([]line, n),
	}
}}

// build writes the line table of q, a point other than ∞, into lines,
// overwriting every entry.
func (b *lineBuild) build(lines []line, q *curve.G2Affine) {
	var addends [4]curve.G2Affine // indexed by stepAddQ..stepSubPsi2
	addends[stepAddQ] = *q
	addends[stepSubQ].Neg(q)
	addends[stepAddPsi].Psi(q)
	addends[stepSubPsi2].PsiSquare(q)
	addends[stepSubPsi2].Neg(&addends[stepSubPsi2])

	// The running point before every step. Jacobian arithmetic follows
	// the group law through ∞, T = ±addend and 2-torsion exactly as the
	// affine case analysis below expects, and costs no inversion.
	chain, pts := b.chain, b.pts
	var t curve.G2Jac
	t.FromAffine(q)
	for k, step := range ateSteps {
		chain[k] = t
		if step == stepDouble {
			t.DoubleAssign()
		} else {
			t.AddMixed(&addends[step])
		}
	}
	// To affine with one shared inversion; ∞ (Z = 0, whose inverse is
	// taken as 0) comes out as (0, 0).
	for k := range chain {
		b.den[k] = chain[k].Z
	}
	ext.BatchInvertE2Into(b.den, b.invs)
	for k := range chain {
		var zi2, zi3 ext.E2
		zi2.Square(&b.invs[k])
		zi3.Mul(&zi2, &b.invs[k])
		pts[k].X.Mul(&chain[k].X, &zi2)
		pts[k].Y.Mul(&chain[k].Y, &zi3)
	}

	// λ = num/den per step, all denominators inverted together.
	num, den := b.num, b.den
	for k, step := range ateSteps {
		t, l := &pts[k], &lines[k]
		*l = line{}
		den[k].SetZero() // stays 0 where there is no slope
		tangent := step == stepDouble
		if !tangent {
			a := &addends[step]
			switch {
			case t.IsInfinity():
				continue // lineNone
			case !t.X.Equal(&a.X):
				// λ = (y₂-y₁)/(x₂-x₁)
				l.kind = lineSlope
				num[k].Sub(&a.Y, &t.Y)
				den[k].Sub(&a.X, &t.X)
			case t.Y.Equal(&a.Y):
				tangent = true // T + T
			default:
				l.kind = lineVertical // T + (-T)
			}
		}
		if tangent {
			if t.Y.IsZero() {
				// 2T = ∞ (also T = ∞ itself, whose "vertical" is x = 0).
				l.kind = lineVertical
			} else {
				// λ = 3x²/(2y)
				l.kind = lineSlope
				num[k].Square(&t.X)
				den[k].Double(&num[k])
				num[k].Add(&num[k], &den[k])
				den[k].Double(&t.Y)
			}
		}
		if l.kind == lineVertical {
			l.b.Neg(&t.X)
		}
	}
	ext.BatchInvertE2Into(den, b.invs)
	for k := range lines {
		if l := &lines[k]; l.kind == lineSlope {
			l.a.Mul(&num[k], &b.invs[k])
			l.b.Mul(&l.a, &pts[k].X)
			l.b.Sub(&l.b, &pts[k].Y)
		}
	}
}

// MillerProduct computes Π f_{6x+2,qs[i]}(ps[i]) — each factor the
// optimal ate Miller function times the two BN end-step lines — in one
// loop over one accumulator. A pair with ∞ on either side contributes 1.
// cached is nil or parallel to qs: cached[i], when it is the table of
// exactly qs[i], spares building one; a nil or stale entry is ignored.
func MillerProduct(ps []*curve.G1Affine, qs []*curve.G2Affine, cached []*Lines) ext.E12 {
	if len(ps) != len(qs) || (cached != nil && len(cached) != len(qs)) {
		panic("pairing: mismatched pair counts")
	}
	type pair struct {
		p     *curve.G1Affine
		negX  fp.Element
		lines []line
	}
	pairs := make([]pair, 0, len(ps))
	// An uncached point's table is built into a pooled lineBuild and
	// lives only for this product.
	var buf [4]*lineBuild
	builds := buf[:0]
	defer func() {
		for _, b := range builds {
			lineBuilds.Put(b)
		}
	}()
	for i, p := range ps {
		if p.IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		var tbl *Lines
		if cached != nil {
			tbl = cached[i]
		}
		pr := pair{p: p}
		if tbl.builtFor(qs[i]) {
			pr.lines = tbl.lines
		} else {
			b := lineBuilds.Get().(*lineBuild)
			builds = append(builds, b)
			b.build(b.lines, qs[i])
			pr.lines = b.lines
		}
		pr.negX.Neg(&p.X)
		pairs = append(pairs, pr)
	}

	var f ext.E12
	f.SetOne()
	for k, step := range ateSteps {
		if step == stepDouble && k > 0 { // f is still 1 at k = 0
			f.Square(&f)
		}
		for j := range pairs {
			pr := &pairs[j]
			pr.lines[k].mulInto(&f, pr.p, &pr.negX)
		}
	}
	return f
}

// MillerLoop computes the optimal ate Miller function f_{6x+2,Q}(P)
// multiplied by the two BN end-step lines. Infinity inputs yield 1.
func MillerLoop(p *curve.G1Affine, q *curve.G2Affine) ext.E12 {
	return MillerProduct([]*curve.G1Affine{p}, []*curve.G2Affine{q}, nil)
}

// FinalExponentiation raises the Miller-loop output to (p¹²-1)/r.
func FinalExponentiation(f *ext.E12) ext.E12 {
	var out ext.E12
	if f.IsZero() {
		out.SetZero()
		return out
	}
	// Easy part: f^(p⁶-1) then ^(p²+1).
	var conj, inv ext.E12
	conj.Conjugate(f)
	inv.Inverse(f)
	out.Mul(&conj, &inv) // f^(p⁶-1)
	var frob2 ext.E12
	frob2.FrobeniusSquare(&out)
	out.Mul(&frob2, &out) // ^(p²+1)

	return hardPart(&out)
}

// expByX sets z = m^x for m in the cyclotomic subgroup, x = BNParamX, by
// the signed-window chain over xDigits: m, m³, m⁵ and m⁷ are tabled (one
// squaring and three multiplications), then each of x's 62 lower digit
// positions costs a cyclotomic squaring and its 13 nonzero digits a
// multiplication — by the conjugate for a negative digit, the inverse
// in the subgroup. 16 multiplications where square-and-multiply over x's
// binary weight of 28 spends 27.
func expByX(z, m *ext.E12) *ext.E12 {
	var odd [4]ext.E12 // odd[k] = m^(2k+1)
	var m2 ext.E12
	odd[0] = *m
	m2.CyclotomicSquare(m)
	for k := 1; k < len(odd); k++ {
		odd[k].Mul(&odd[k-1], &m2)
	}
	res := odd[(xDigits[0]-1)/2]
	var t ext.E12
	for _, d := range xDigits[1:] {
		res.CyclotomicSquare(&res)
		switch {
		case d > 0:
			res.Mul(&res, &odd[(d-1)/2])
		case d < 0:
			t.Conjugate(&odd[(-d-1)/2])
			res.Mul(&res, &t)
		}
	}
	*z = res
	return z
}

// hardPart raises m, an element of the cyclotomic subgroup (the easy
// part's output), to (p⁴-p²+1)/r. In the subgroup inversion is
// conjugation and squaring is Granger-Scott's, so the cost is the three
// exponentiations by x; init() asserts the exponent.
func hardPart(m *ext.E12) ext.E12 {
	var mx, mx2, mx3 ext.E12
	expByX(&mx, m)
	expByX(&mx2, &mx)
	expByX(&mx3, &mx2)

	var y [7]ext.E12
	var t ext.E12
	y[0].Frobenius(m)
	t.FrobeniusSquare(m)
	y[0].Mul(&y[0], &t)
	t.Frobenius(&t)
	y[0].Mul(&y[0], &t) // m^p · m^p² · m^p³
	y[1].Conjugate(m)   // 1/m
	y[2].FrobeniusSquare(&mx2)
	y[3].Frobenius(&mx)
	y[3].Conjugate(&y[3])
	y[4].Frobenius(&mx2)
	y[4].Mul(&y[4], &mx)
	y[4].Conjugate(&y[4])
	y[5].Conjugate(&mx2)
	y[6].Frobenius(&mx3)
	y[6].Mul(&y[6], &mx3)
	y[6].Conjugate(&y[6])

	// y₀·y₁²·y₂⁶·y₃¹²·y₄¹⁸·y₅³⁰·y₆³⁶ by the vector addition chain of
	// Scott et al., §5: 9 multiplications and 4 squarings.
	var t0, t1 ext.E12
	t0.CyclotomicSquare(&y[6])
	t0.Mul(&t0, &y[4])
	t0.Mul(&t0, &y[5]) // y₄ y₅ y₆²
	t1.Mul(&y[3], &y[5])
	t1.Mul(&t1, &t0)   // y₃ y₄ y₅² y₆²
	t0.Mul(&t0, &y[2]) // y₂ y₄ y₅ y₆²
	t1.CyclotomicSquare(&t1)
	t1.Mul(&t1, &t0) // y₂ y₃² y₄³ y₅⁵ y₆⁶
	t1.CyclotomicSquare(&t1)
	t0.Mul(&t1, &y[1]) // y₁ y₂² y₃⁴ y₄⁶ y₅¹⁰ y₆¹²
	t1.Mul(&t1, &y[0]) // y₀ y₂² y₃⁴ y₄⁶ y₅¹⁰ y₆¹²
	t0.CyclotomicSquare(&t0)
	t0.Mul(&t0, &t1)
	return t0
}

// Pair computes the reduced optimal ate pairing e(p, q).
func Pair(p *curve.G1Affine, q *curve.G2Affine) ext.E12 {
	f := MillerLoop(p, q)
	return FinalExponentiation(&f)
}

// PairingCheck reports whether Π e(ps[i], qs[i]) == 1, sharing one
// Miller accumulator and one final exponentiation across all pairs (the
// Groth16 verification shape).
func PairingCheck(ps []*curve.G1Affine, qs []*curve.G2Affine) bool {
	return PairingCheckLines(ps, qs, nil, nil)
}

// PairingCheckLines reports whether Π e(ps[i], qs[i]) · k == 1. k must
// already be a reduced pairing value (a Pair output or a product/power
// of them), and a nil k stands for 1: verifiers that cache e(α, β) use
// it to drop one pair from every check. cached holds line tables of the
// verifier's fixed G2 points, as for MillerProduct.
func PairingCheckLines(ps []*curve.G1Affine, qs []*curve.G2Affine, cached []*Lines, k *ext.E12) bool {
	f := MillerProduct(ps, qs, cached)
	res := FinalExponentiation(&f)
	if k != nil {
		res.Mul(&res, k)
	}
	return res.IsOne()
}
