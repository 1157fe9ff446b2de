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

// TestMultiExpAllWindowWidthsAgree forces every supported window width
// over one input set: the widths must all produce the same point, so a
// recoding or bucket bug at any c — including the widths only the
// 2^16..2^22 size brackets select — shows up without a huge oracle run.
func TestMultiExpAllWindowWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 700 // above msmAffineThreshold so the batch-affine path runs
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
// which drives the batch scheduler's conflict queue into its Jacobian
// spill path.
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
