package mont

import "math/bits"

// Inverse sets z = 1/x mod q, or 0 when x == 0.
//
// It is Pornin's optimized binary GCD ("Optimized Binary GCD for Modular
// Inversion", ePrint 2020/972, Algorithm 2) with k = 32, run on the raw
// Montgomery representative y = a·R: it keeps a ≡ u·y and b ≡ v·y
// (mod q), starting from (a, u) = (y, 1) and (b, v) = (q, 0), and ends
// with a = 0, b = gcd = 1, so v = y⁻¹ = a⁻¹·R⁻¹. One Montgomery
// multiplication by R³ restores Montgomery form (a⁻¹·R).
//
// Each outer step runs 31 binary-GCD steps on 64-bit approximations of
// a and b — their low 31 bits, exact, and their top 33 bits, which pick
// the subtraction's direction — recording them in a matrix of signed
// factors below 2³¹, then applies that matrix to the full a, b and to
// u, v once. An approximate comparison can make a or b negative; the
// sign is flipped together with its matrix row. Pornin bounds the steps
// at 2·254 − 1, so at most 17 outer steps. This variant is not constant
// time: runs of zero bits shift out at once, and it stops as soon as
// a = 0. The Fermat inverse x^(q−2) is its oracle
// (TestInverseMatchesFermatOracle in fp and fr).
func (f *Field) Inverse(z, x *[4]uint64) {
	if *x == ([4]uint64{}) {
		*z = *x
		return
	}
	a, b := *x, f.q
	u, v := [4]uint64{1}, [4]uint64{}
	for {
		// Two outer steps share one u, v update: the product of their
		// matrices has |f| + |g| ≤ 2⁶², still one signed word.
		f0, g0, f1, g1 := stepAB(&a, &b)
		if a == ([4]uint64{}) {
			u, v = f.updateUV(&u, &v, f0, g0, f1, g1, 31)
			break
		}
		h0, k0, h1, k1 := stepAB(&a, &b)
		u, v = f.updateUV(&u, &v, h0*f0+k0*f1, h0*g0+k0*g1, h1*f0+k1*f1, h1*g0+k1*g1, 62)
		if a == ([4]uint64{}) {
			break
		}
	}
	f.Mul(z, &v, &f.rCube)
}

// stepAB runs one outer step on a and b: the 31 approximate GCD steps,
// then a' = |f0·a + g0·b|/2³¹ and b' = |f1·a + g1·b|/2³¹ (the divisions
// are exact). It returns the matrix with the row of each value that
// came out negative negated, so that a ≡ u·y and b ≡ v·y keep holding
// once u and v take the same matrix.
func stepAB(a, b *[4]uint64) (f0, g0, f1, g1 int64) {
	f0, g0, f1, g1 = gcdSteps(approx(a, b))
	a0, a1, a2, a3, sa := absShift31(lin(a, b, f0, g0))
	b0, b1, b2, b3, sb := absShift31(lin(a, b, f1, g1))
	*a = [4]uint64{a0, a1, a2, a3}
	*b = [4]uint64{b0, b1, b2, b3}
	ma, mb := int64(sa), int64(sb)
	return (f0 ^ ma) - ma, (g0 ^ ma) - ma, (f1 ^ mb) - mb, (g1 ^ mb) - mb
}

// updateUV returns u' = (f0·u + g0·v)/2ˢ and v' = (f1·u + g1·v)/2ˢ mod
// q, for |f| + |g| ≤ 2ˢ, s ≤ 62.
func (f *Field) updateUV(u, v *[4]uint64, f0, g0, f1, g1 int64, s uint) ([4]uint64, [4]uint64) {
	t0, t1, t2, t3, t4 := lin(u, v, f0, g0)
	w0, w1, w2, w3, w4 := lin(u, v, f1, g1)
	return f.montShift(s, t0, t1, t2, t3, t4), f.montShift(s, w0, w1, w2, w3, w4)
}

// gcdSteps runs 31 binary-GCD steps on the approximations xa, xb and
// returns the matrix that maps (a, b) to 2³¹·(a', b'): a' = (f0·a +
// g0·b)/2³¹, b' = (f1·a + g1·b)/2³¹. One step halves xa when it is even;
// when it is odd it first swaps xa, xb if xa < xb and subtracts xb from
// xa. The loop body is one subtraction followed by every halving that
// can follow it.
func gcdSteps(xa, xb uint64) (f0, g0, f1, g1 int64) {
	f0, g1 = 1, 1
	rem := 31
	n := min(bits.TrailingZeros64(xa), rem)
	xa >>= n
	f1 <<= n
	g1 <<= n
	rem -= n
	for rem > 0 {
		// xa is odd: swap when xa < xb, by mask, then subtract.
		d, borrow := bits.Sub64(xa, xb, 0)
		swap := -borrow
		xb ^= swap & (xa ^ xb)
		xa = (d ^ swap) - swap
		s := int64(swap)
		tf, tg := s&(f0^f1), s&(g0^g1)
		f0, f1 = f0^tf, f1^tf
		g0, g1 = g0^tg, g1^tg
		f0 -= f1
		g0 -= g1
		n = min(bits.TrailingZeros64(xa), rem)
		xa >>= n
		f1 <<= n
		g1 <<= n
		rem -= n
	}
	return f0, g0, f1, g1
}

// approx returns the 64-bit approximations of a and b: for both, the
// low 31 bits and, above them, the 33 bits from the top of the longer
// of the two (the values themselves when both fit in 64 bits).
func approx(a, b *[4]uint64) (xa, xb uint64) {
	var or [4]uint64
	for i := range or {
		or[i] = a[i] | b[i]
	}
	n := 0
	for i := 4 - 1; i >= 0; i-- {
		if or[i] != 0 {
			n = 64*i + bits.Len64(or[i])
			break
		}
	}
	if n <= 64 {
		return a[0], b[0]
	}
	const low = 1<<31 - 1
	return top33(a, n-33)<<31 | a[0]&low, top33(b, n-33)<<31 | b[0]&low
}

// top33 returns bits [s, s+33) of a.
func top33(a *[4]uint64, s int) uint64 {
	i, off := s/64, uint(s%64)
	w := a[i] >> off
	if off > 31 && i+1 < 4 {
		w |= a[i+1] << (64 - off)
	}
	return w & (1<<33 - 1)
}

// The helpers below pass multi-limb values as separate words, not
// arrays: the compiler keeps words in registers, while an array
// returned by value goes through the stack with store-forwarding stalls.

// lin returns f·a + g·b as a 320-bit two's-complement integer, for a, b
// below 2²⁵⁶ and |f| + |g| ≤ 2⁶².
func lin(a, b *[4]uint64, f, g int64) (t0, t1, t2, t3, t4 uint64) {
	x0, x1, x2, x3, x4 := mulSigned(a, f)
	y0, y1, y2, y3, y4 := mulSigned(b, g)
	var c uint64
	t0, c = bits.Add64(x0, y0, 0)
	t1, c = bits.Add64(x1, y1, c)
	t2, c = bits.Add64(x2, y2, c)
	t3, c = bits.Add64(x3, y3, c)
	t4, _ = bits.Add64(x4, y4, c)
	return
}

// mulSigned returns a·f as a 320-bit two's-complement integer.
func mulSigned(a *[4]uint64, f int64) (t0, t1, t2, t3, t4 uint64) {
	t0, t1, t2, t3, t4 = mulWord(a, uint64(f))
	// For f < 0 that is a·(f + 2⁶⁴): take a·2⁶⁴ off again, by mask (the
	// sign is a coin flip, too costly to branch on).
	neg := uint64(f >> 63)
	var bw uint64
	t1, bw = bits.Sub64(t1, a[0]&neg, 0)
	t2, bw = bits.Sub64(t2, a[1]&neg, bw)
	t3, bw = bits.Sub64(t3, a[2]&neg, bw)
	t4, _ = bits.Sub64(t4, a[3]&neg, bw)
	return
}

// mulWord returns a·m, unsigned.
func mulWord(a *[4]uint64, m uint64) (t0, t1, t2, t3, t4 uint64) {
	var h0, h1, h2, h3, c uint64
	h0, t0 = bits.Mul64(a[0], m)
	h1, t1 = bits.Mul64(a[1], m)
	h2, t2 = bits.Mul64(a[2], m)
	h3, t3 = bits.Mul64(a[3], m)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 = h3 + c
	return
}

// absShift31 returns |t|/2³¹ and a mask of t's sign (all ones when
// negative); |t|/2³¹ must fit in 256 bits.
func absShift31(t0, t1, t2, t3, t4 uint64) (r0, r1, r2, r3, neg uint64) {
	neg = uint64(int64(t4) >> 63)
	// Shift, then negate by mask: (r ⊕ neg) − neg.
	var bw uint64
	r0, bw = bits.Sub64((t0>>31|t1<<33)^neg, neg, 0)
	r1, bw = bits.Sub64((t1>>31|t2<<33)^neg, neg, bw)
	r2, bw = bits.Sub64((t2>>31|t3<<33)^neg, neg, bw)
	r3, _ = bits.Sub64((t3>>31|t4<<33)^neg, neg, bw)
	return
}

// montShift returns t/2ˢ mod q, canonical, for |t| < 2ˢ·q: it adds the
// multiple m·q (m < 2ˢ) that clears t's low s bits, shifts, and brings
// the result, now in (−2q, 2q), into [0, q).
func (f *Field) montShift(s uint, t0, t1, t2, t3, t4 uint64) (r [4]uint64) {
	p0, p1, p2, p3, p4 := mulWord(&f.q, t0*f.qInvNeg&(1<<s-1))
	var c uint64
	t0, c = bits.Add64(t0, p0, 0)
	t1, c = bits.Add64(t1, p1, c)
	t2, c = bits.Add64(t2, p2, c)
	t3, c = bits.Add64(t3, p3, c)
	t4, _ = bits.Add64(t4, p4, c)
	// |r| < 2q < 2²⁵⁵, so r's top bit is its sign.
	r = [4]uint64{t0>>s | t1<<(64-s), t1>>s | t2<<(64-s), t2>>s | t3<<(64-s), t3>>s | t4<<(64-s)}
	for int64(r[3]) < 0 {
		f.addQ(&r)
	}
	if !f.below(&r) {
		var b uint64
		r[0], b = bits.Sub64(r[0], f.q[0], 0)
		r[1], b = bits.Sub64(r[1], f.q[1], b)
		r[2], b = bits.Sub64(r[2], f.q[2], b)
		r[3], _ = bits.Sub64(r[3], f.q[3], b)
	}
	return r
}

// addQ sets z += q mod 2²⁵⁶.
func (f *Field) addQ(z *[4]uint64) {
	var c uint64
	z[0], c = bits.Add64(z[0], f.q[0], 0)
	z[1], c = bits.Add64(z[1], f.q[1], c)
	z[2], c = bits.Add64(z[2], f.q[2], c)
	z[3], _ = bits.Add64(z[3], f.q[3], c)
}
