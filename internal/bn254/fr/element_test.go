package fr

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/mont/monttest"
	"zkrownn/internal/bn254/refimpl"
)

// suite is r's row of the Montgomery core's test suite (monttest): each
// check runs on r's constant block against refimpl.Fr.
var suite = monttest.New(&field, refimpl.Fr)

func TestMontgomeryRoundTrip(t *testing.T) { monttest.MontgomeryRoundTrip(t, suite) }
func TestAddSubMulAgainstBig(t *testing.T) { monttest.AddSubMulAgainstBig(t, suite) }
func TestAddSubBoundaries(t *testing.T)    { monttest.AddSubBoundaries(t, suite) }
func TestFieldAxiomsQuick(t *testing.T)    { monttest.FieldAxiomsQuick(t, suite) }
func TestIdentities(t *testing.T)          { monttest.Identities(t, suite) }
func TestSetInt64(t *testing.T)            { monttest.SetInt64(t, suite) }
func TestSetString(t *testing.T)           { monttest.SetString(t, suite) }
func TestExp(t *testing.T)                 { monttest.Exp(t, suite) }
func TestLegendre(t *testing.T)            { monttest.Legendre(t, suite) }
func TestHalve(t *testing.T)               { monttest.Halve(t, suite) }
func TestBytesRoundTrip(t *testing.T)      { monttest.BytesRoundTrip(t, suite) }
func TestMontBytesRoundTrip(t *testing.T)  { monttest.MontBytesRoundTrip(t, suite) }
func TestSetBytesCanonicalMatchesBigInt(t *testing.T) {
	monttest.SetBytesCanonicalMatchesBigInt(t, suite)
}
func TestCmpAndLexicographicallyLargest(t *testing.T) {
	monttest.CmpAndLexicographicallyLargest(t, suite)
}
func TestBatchInvert(t *testing.T)                { monttest.BatchInvert(t, suite) }
func TestInverseMatchesFermatOracle(t *testing.T) { monttest.InverseMatchesFermatOracle(t, suite) }
func FuzzFrMulBackends(f *testing.F)              { monttest.FuzzMulBackends(f, suite) }
func FuzzFrArith(f *testing.F)                    { monttest.FuzzArith(f, suite) }

// randElement returns a pseudo-random element for deterministic tests.
func randElement(rng *rand.Rand) Element { return suite.Random(rng) }

func TestStringAndFormat(t *testing.T) {
	a := NewElement(123456789)
	if got := fmt.Sprintf("%s %v %d", a.String(), a, &a); got != "123456789 123456789 123456789" {
		t.Fatalf("String and Format print %q", got)
	}
}

// TestSignedLimbs pins the balanced representative the MSM recoder
// folds on: ±limbs reconstructs z, the magnitude never exceeds (p−1)/2,
// and the fold flips exactly between (p−1)/2 and (p+1)/2.
func TestSignedLimbs(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	p := Modulus()
	half := new(big.Int).Rsh(p, 1) // (p−1)/2
	check := func(v *big.Int, wantNeg bool) {
		t.Helper()
		var z Element
		z.SetBigInt(v)
		limbs, neg := z.SignedLimbs()
		mag := new(big.Int)
		for i := Limbs - 1; i >= 0; i-- {
			mag.Lsh(mag, 64).Or(mag, new(big.Int).SetUint64(limbs[i]))
		}
		if neg != wantNeg || mag.Cmp(half) > 0 {
			t.Fatalf("SignedLimbs(%v) = (%v, neg=%v), want neg=%v and magnitude ≤ (p−1)/2", v, mag, neg, wantNeg)
		}
		if neg {
			mag.Sub(p, mag)
		}
		if mag.Cmp(v) != 0 {
			t.Fatalf("SignedLimbs(%v) reconstructs %v", v, mag)
		}
	}
	check(big.NewInt(0), false)
	check(big.NewInt(1), false)
	check(half, false)
	check(new(big.Int).Add(half, big.NewInt(1)), true)
	check(new(big.Int).Sub(p, big.NewInt(1)), true)
	check(new(big.Int).Sub(p, new(big.Int).Lsh(big.NewInt(1), 64)), true)
	for i := 0; i < 500; i++ {
		a := randElement(rng)
		v := a.ToBigInt()
		check(v, v.Cmp(half) > 0)
	}
}
