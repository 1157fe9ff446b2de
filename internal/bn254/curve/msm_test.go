package curve

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// msmTestVectors draws n (point, scalar) pairs with the MSM's edge cases
// mixed in: ~1/8 zero scalars, ~1/8 infinity points, ~1/5 repeated
// points, and a few structured scalars (1, -1, window-boundary values)
// that stress the signed-digit recoding.
func msmTestVectors(rng *rand.Rand, n int) ([]G1Affine, []fr.Element) {
	points := make([]G1Affine, n)
	scalars := make([]fr.Element, n)
	for i := 0; i < n; i++ {
		switch {
		case n > 4 && i%8 == 3:
			points[i] = G1Affine{} // infinity
		case n > 4 && i%5 == 4:
			points[i] = points[i-1] // repeated point
		default:
			p := randG1(rng)
			points[i].FromJacobian(&p)
		}
		switch {
		case n > 4 && i%8 == 5:
			scalars[i].SetZero()
		case n > 4 && i%16 == 0:
			// r-1 ≡ -1: every window digit exercises the negative range.
			scalars[i].SetUint64(1)
			scalars[i].Neg(&scalars[i])
		case n > 4 && i%16 == 8:
			// 2^(c-1) boundaries for every supported c collapse to powers
			// of two; 2^128 sits mid-scalar.
			var two fr.Element
			two.SetUint64(2)
			scalars[i].SetOne()
			for b := 0; b < 128; b++ {
				scalars[i].Mul(&scalars[i], &two)
			}
		default:
			scalars[i] = randFr(rng)
		}
	}
	return points, scalars
}

// naiveMSMG1 is the ScalarMul-sum oracle.
func naiveMSMG1(points []G1Affine, scalars []fr.Element) G1Jac {
	var want G1Jac
	want.SetInfinity()
	for i := range points {
		var pj, term G1Jac
		pj.FromAffine(&points[i])
		term.ScalarMul(&pj, &scalars[i])
		want.AddAssign(&term)
	}
	return want
}

// TestMultiExpG1StraddlesWindowThresholds pins the MSM against the
// naive oracle at sizes straddling every MSMWindowSize threshold the
// oracle can afford (the larger brackets select window widths that
// TestMultiExpAllWindowWidthsAgree exercises directly).
func TestMultiExpG1StraddlesWindowThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	sizes := []int{0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025}
	if !testing.Short() {
		sizes = append(sizes, 4095, 4096, 4097)
	}
	for _, n := range sizes {
		points, scalars := msmTestVectors(rng, n)
		got := MultiExpG1(points, scalars)
		want := naiveMSMG1(points, scalars)
		if !got.Equal(&want) {
			t.Fatalf("MSM G1 mismatch at n=%d (window c=%d)", n, MSMWindowSize(n))
		}
	}
}

// smallPathScalars cycles through the scalars the small pass's recoding
// turns on: 0, 1, r−1, (r−1)/2 and (r+1)/2 (either side of the sign
// fold), a uniform full-width value, and a verifier IC's pair — a digest
// (32 hash-like bytes reduced mod r) followed by a claim bit.
func smallPathScalars(rng *rand.Rand, n int) []fr.Element {
	r := GroupOrder()
	one := big.NewInt(1)
	halfDown := new(big.Int).Rsh(new(big.Int).Sub(r, one), 1)
	fixed := []*big.Int{
		new(big.Int), one, new(big.Int).Sub(r, one),
		halfDown, new(big.Int).Add(halfDown, one),
	}
	scalars := make([]fr.Element, n)
	for i := range scalars {
		switch k := i % (len(fixed) + 3); {
		case k < len(fixed):
			scalars[i].SetBigInt(fixed[k])
		case k == len(fixed):
			scalars[i] = randFr(rng)
		case k == len(fixed)+1:
			digest := make([]byte, 32)
			rng.Read(digest)
			scalars[i].SetBytes(digest)
		default:
			scalars[i].SetOne()
		}
	}
	return scalars
}

// TestMultiExpSmallPathAroundThreshold pins every MSM size from 1 to one
// past msmSmallThreshold, in both groups, to two references: the sum of
// per-point ScalarMulBig results, and a Pippenger run forced at the same
// size through the decomposed entry. The points include infinity and
// repeats (a point equal to its predecessor); G2 points are in the
// subgroup, as the sign-folded digits require.
func TestMultiExpSmallPathAroundThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	top := msmSmallThreshold + 1
	scalars := smallPathScalars(rng, top)
	g1s, g2s := make([]G1Affine, top), make([]G2Affine, top)
	ref1, ref2 := make([]G1Jac, top), make([]G2Jac, top)
	for i := range top {
		switch {
		case i%7 == 3: // infinity
		case i%5 == 4:
			g1s[i], g2s[i] = g1s[i-1], g2s[i-1]
		default:
			p1, p2 := randG1(rng), randG2(rng)
			g1s[i].FromJacobian(&p1)
			g2s[i].FromJacobian(&p2)
		}
		k := scalars[i].BigInt(new(big.Int))
		var j1 G1Jac
		var j2 G2Jac
		ref1[i].ScalarMulBig(j1.FromAffine(&g1s[i]), k)
		ref2[i].ScalarMulBig(j2.FromAffine(&g2s[i]), k)
	}
	var want1 G1Jac
	var want2 G2Jac
	want1.SetInfinity()
	want2.SetInfinity()
	for n := 1; n <= top; n++ {
		want1.AddAssign(&ref1[n-1])
		want2.AddAssign(&ref2[n-1])
		dec := DecomposeScalars(scalars[:n], MSMWindowSize(n))
		got1, pip1 := MultiExpG1(g1s[:n], scalars[:n]), MultiExpG1Decomposed(g1s[:n], dec)
		if !got1.Equal(&want1) || !pip1.Equal(&want1) {
			t.Fatalf("G1 n=%d: entry %v, Pippenger %v, ScalarMulBig sum differs", n, got1.Equal(&want1), pip1.Equal(&want1))
		}
		got2, pip2 := MultiExpG2(g2s[:n], scalars[:n]), MultiExpG2Decomposed(g2s[:n], dec)
		if !got2.Equal(&want2) || !pip2.Equal(&want2) {
			t.Fatalf("G2 n=%d: entry %v, Pippenger %v, ScalarMulBig sum differs", n, got2.Equal(&want2), pip2.Equal(&want2))
		}
	}

	// The verifier's exact shape: a digest and a claim bit of 0 or 1.
	for _, claim := range []uint64{0, 1} {
		pair := smallPathScalars(rng, 8)[6:]
		pair[1].SetUint64(claim)
		got := MultiExpG1(g1s[:2], pair)
		want := naiveMSMG1(g1s[:2], pair)
		if !got.Equal(&want) {
			t.Fatalf("digest + claim bit %d: small pass differs from the ScalarMul sum", claim)
		}
	}
}

// TestMultiExpAllWindowWidthsAgree forces every supported window width
// over one input set: the widths must all produce the same point, so a
// recoding or bucket bug at any c — including the widths only the
// 2^16..2^22 size brackets select — shows up without a huge oracle run.
func TestMultiExpAllWindowWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 700
	points, scalars := msmTestVectors(rng, n)
	want := naiveMSMG1(points, scalars)
	for c := 2; c <= 15; c++ {
		got := MultiExpG1Decomposed(points, DecomposeScalars(scalars, c))
		if !got.Equal(&want) {
			t.Fatalf("MSM G1 mismatch at window width c=%d", c)
		}
	}
}

// TestMultiExpG2Decomposed checks the G2 MSM with edge-case vectors and
// that both groups accept one shared decomposition (the prover's usage).
func TestMultiExpG2Decomposed(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 40
	scalars := make([]fr.Element, n)
	g1s := make([]G1Affine, n)
	g2s := make([]G2Affine, n)
	var wantG2 G2Jac
	wantG2.SetInfinity()
	for i := 0; i < n; i++ {
		p1 := randG1(rng)
		g1s[i].FromJacobian(&p1)
		p2 := randG2(rng)
		g2s[i].FromJacobian(&p2)
		switch {
		case i%7 == 2:
			scalars[i].SetZero()
		case i%7 == 5:
			g2s[i] = G2Affine{} // infinity
		default:
			scalars[i] = randFr(rng)
		}
		var pj, term G2Jac
		pj.FromAffine(&g2s[i])
		term.ScalarMul(&pj, &scalars[i])
		wantG2.AddAssign(&term)
	}
	dec := DecomposeScalars(scalars, MSMWindowSize(n))
	gotG2 := MultiExpG2Decomposed(g2s, dec)
	if !gotG2.Equal(&wantG2) {
		t.Fatal("decomposed MSM G2 mismatch")
	}
	// The same digits drive the G1 MSM (shared-witness prover shape).
	gotG1 := MultiExpG1Decomposed(g1s, dec)
	wantG1 := naiveMSMG1(g1s, scalars)
	if !gotG1.Equal(&wantG1) {
		t.Fatal("decomposed MSM G1 mismatch with shared digits")
	}
}

// TestMultiExpDecomposedLengthMismatchPanics: a decomposition of three
// scalars against two points panics in both groups, all-zero scalars
// included — their digits would add nothing, but the lengths still
// disagree.
func TestMultiExpDecomposedLengthMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	g1s, g2s := make([]G1Affine, 2), make([]G2Affine, 2)
	for i := range g1s {
		p1, p2 := randG1(rng), randG2(rng)
		g1s[i].FromJacobian(&p1)
		g2s[i].FromJacobian(&p2)
	}
	full := []fr.Element{randFr(rng), randFr(rng), randFr(rng)}
	for _, sh := range []struct {
		name    string
		scalars []fr.Element
	}{{"zero", make([]fr.Element, 3)}, {"full", full}} {
		dec := DecomposeScalars(sh.scalars, 4)
		for group, call := range map[string]func(){
			"G1": func() { MultiExpG1Decomposed(g1s, dec) },
			"G2": func() { MultiExpG2Decomposed(g2s, dec) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s scalars, three against two points, did not panic", group, sh.name)
					}
				}()
				call()
			}()
		}
	}
}

// TestMultiExpDecomposedMatchesPlain is the round-trip required of the
// precomputed-digit API: decomposing up front must not change results.
func TestMultiExpDecomposedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{5, 600, 1300} {
		points, scalars := msmTestVectors(rng, n)
		plain := MultiExpG1(points, scalars)
		dec := DecomposeScalars(scalars, MSMWindowSize(n))
		decomposed := MultiExpG1Decomposed(points, dec)
		if !plain.Equal(&decomposed) {
			t.Fatalf("plain vs decomposed mismatch at n=%d", n)
		}
	}
}

// TestMultiExpWitnessShapedScalars pins the MSM on the scalar profile
// real witnesses have — thousands of repeated bit values and small
// fixed-point magnitudes all landing in the same low-window buckets —
// which fills the batch scheduler's conflict queue and collapses it.
func TestMultiExpWitnessShapedScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 3000
	points := make([]G1Affine, n)
	scalars := make([]fr.Element, n)
	for i := 0; i < n; i++ {
		p := randG1(rng)
		points[i].FromJacobian(&p)
		switch {
		case i%3 == 0:
			scalars[i].SetOne() // bit wires
		case i%3 == 1:
			scalars[i].SetUint64(uint64(1 + i%17)) // shared small constants
		default:
			scalars[i].SetUint64(uint64(rng.Int63n(1 << 44))) // fixed-point range
		}
	}
	got := MultiExpG1(points, scalars)
	want := naiveMSMG1(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("MSM mismatch on witness-shaped scalars")
	}
}

// TestDecomposeScalarsReconstructs verifies the signed digits are a
// radix-2^c representation of the scalar's balanced representative:
// every digit lies in the symmetric range [-2^(c-1), 2^(c-1)], and
// Σ dᵢ·2^(c·i), taken over the integers, is s when s ≤ (r-1)/2 and s-r
// otherwise — so its magnitude never exceeds (r-1)/2. The fold boundary
// (r±1)/2, the carry-chain extremes r-1 and r-2^k, and both ends of the
// width range (c = 2; c = 15, where ±2^14 is the int16-held edge) are
// pinned explicitly.
func TestDecomposeScalarsReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	r := GroupOrder()
	halfR := new(big.Int).Rsh(r, 1) // (r-1)/2
	var scalars []fr.Element
	add := func(v *big.Int) {
		var e fr.Element
		e.SetBigInt(v)
		scalars = append(scalars, e)
	}
	add(big.NewInt(0))
	add(big.NewInt(1))
	add(halfR)                                  // largest unfolded value
	add(new(big.Int).Add(halfR, big.NewInt(1))) // (r+1)/2: smallest folded value
	add(new(big.Int).Sub(r, big.NewInt(1)))     // r-1 ≡ -1
	for k := 1; k < 253; k += 7 {
		pow := new(big.Int).Lsh(big.NewInt(1), uint(k))
		add(pow)                                                       // 2^k: window-boundary carries
		add(new(big.Int).Sub(pow, big.NewInt(1)))                      // 2^k-1: all-ones carry chain
		add(new(big.Int).Sub(r, pow))                                  // r-2^k ≡ -2^k
		add(new(big.Int).Add(new(big.Int).Sub(r, pow), big.NewInt(1))) // ≡ -(2^k-1)
	}
	for i := 0; i < 64; i++ {
		scalars = append(scalars, randFr(rng))
	}
	n := len(scalars)
	for c := 2; c <= 15; c++ {
		dec := DecomposeScalars(scalars, c)
		half := int64(1) << (c - 1)
		for i := range scalars {
			acc := new(big.Int)
			for w := dec.windows - 1; w >= 0; w-- {
				d := int64(dec.digits[w*n+i])
				if d > half || d < -half {
					t.Fatalf("digit %d out of range at c=%d", d, c)
				}
				if d != 0 && w >= dec.used {
					t.Fatalf("nonzero digit in window %d above used=%d at c=%d", w, dec.used, c)
				}
				acc.Lsh(acc, uint(c)).Add(acc, big.NewInt(d))
			}
			want := scalars[i].ToBigInt()
			if want.Cmp(halfR) > 0 {
				want.Sub(want, r)
			}
			if acc.Cmp(want) != 0 {
				t.Fatalf("digits of scalar %d reconstruct %v, want balanced representative %v at c=%d", i, acc, want, c)
			}
		}
		// ±2^(c-1) are single digits at the two ends of the range (at
		// c = 15 the int16-held edge ±16384).
		for _, sign := range []int64{1, -1} {
			var e fr.Element
			e.SetInt64(sign * half)
			if d := DecomposeScalars([]fr.Element{e}, c); int64(d.digits[0]) != sign*half || d.used != 1 {
				t.Fatalf("%d recodes to digit %d, used %d at c=%d; want one digit", sign*half, d.digits[0], d.used, c)
			}
		}
	}
}
