package fp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/mont/monttest"
	"zkrownn/internal/bn254/refimpl"
)

// suite is p's row of the Montgomery core's test suite (monttest): each
// check runs on p's constant block against refimpl.Fp.
var suite = monttest.New(&field, refimpl.Fp)

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
func FuzzFpMulBackends(f *testing.F)              { monttest.FuzzMulBackends(f, suite) }
func FuzzFpArith(f *testing.F)                    { monttest.FuzzArith(f, suite) }

// randElement returns a pseudo-random element for deterministic tests.
func randElement(rng *rand.Rand) Element { return suite.Random(rng) }

// TestBatchInvertInto checks fp's own BatchInvertInto and BatchInvert,
// the Element-typed entry points over the core's limb-typed one: zero
// entries map to zero and a garbage-filled result buffer is overwritten.
func TestBatchInvertInto(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	in := make([]Element, 50)
	for i := range in {
		if i%9 != 4 { // every ninth entry stays zero
			in[i] = randElement(rng)
		}
	}
	out := make([]Element, len(in))
	for i := range out {
		out[i] = randElement(rng)
	}
	BatchInvertInto(in, out)
	for i, inv := range BatchInvert(in) {
		if inv != out[i] {
			t.Fatalf("BatchInvert and BatchInvertInto differ at %d", i)
		}
		if in[i].IsZero() {
			if !out[i].IsZero() {
				t.Fatal("inverse of zero not zero")
			}
			continue
		}
		var prod Element
		if !prod.Mul(&in[i], &out[i]).IsOne() {
			t.Fatalf("batch inverse wrong at %d", i)
		}
	}
}

func TestSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	found := 0
	for range 100 {
		a := randElement(rng)
		var sq, rt, chk Element
		sq.Square(&a)
		if rt.Sqrt(&sq) == nil {
			t.Fatal("square reported as non-residue")
		}
		if !chk.Square(&rt).Equal(&sq) {
			t.Fatal("sqrt(x²)² != x²")
		}
		if field.Legendre((*limbs)(&a)) == -1 {
			found++
			if rt.Sqrt(&a) != nil {
				t.Fatal("non-residue has square root")
			}
		}
	}
	if found == 0 {
		t.Fatal("no non-residues sampled; suspicious")
	}
}

// TestSqrtMatchesModSqrt holds Sqrt to math/big's ModSqrt on squares,
// on random values (about half of them non-residues), on 0, 1 and on
// p−1 = −1, a non-residue since p ≡ 3 mod 4: both find a root or
// neither does, and the roots agree up to sign.
func TestSqrtMatchesModSqrt(t *testing.T) {
	p := Modulus()
	rng := rand.New(rand.NewSource(44))
	one := NewElement(1)
	var minusOne Element
	minusOne.Neg(&one)
	cases := []Element{{}, one, minusOne}
	for range 64 {
		a := randElement(rng)
		var sq Element
		cases = append(cases, a, *sq.Square(&a))
	}
	residues, nonResidues := 0, 0
	for _, x := range cases {
		want := new(big.Int).ModSqrt(x.ToBigInt(), p)
		var root Element
		got := root.Sqrt(&x)
		if (got == nil) != (want == nil) {
			t.Fatalf("Sqrt(%s) found a root: %v, ModSqrt: %v", x.String(), got != nil, want != nil)
		}
		if want == nil {
			nonResidues++
			continue
		}
		residues++
		var w, negW Element
		w.SetBigInt(want)
		negW.Neg(&w)
		if !root.Equal(&w) && !root.Equal(&negW) {
			t.Fatalf("Sqrt(%s) = %s, ModSqrt ±%s", x.String(), root.String(), want)
		}
	}
	if residues < 64 || nonResidues < 10 {
		t.Fatalf("%d residues and %d non-residues sampled; suspicious", residues, nonResidues)
	}
}

func TestStringAndFormat(t *testing.T) {
	a := NewElement(123456789)
	if got := fmt.Sprintf("%s %v %d", a.String(), a, &a); got != "123456789 123456789 123456789" {
		t.Fatalf("String and Format print %q", got)
	}
}
