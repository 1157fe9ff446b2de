package pairing

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/refimpl"
)

// The final exponentiation against internal/bn254/refimpl, which shares
// no code with the stack: F_p¹² as one polynomial ring, every exponent a
// single math/big integer raised by square-and-multiply. Coordinates
// cross as raw Montgomery limbs with R and R⁻¹ applied in math/big, as in
// ext's oracle tests, so the bridge does not lean on the arithmetic under
// test.

var (
	oracleR    = refimpl.Fp.Reduce(new(big.Int).Lsh(big.NewInt(1), 256))
	oracleRInv = refimpl.Fp.Inverse(oracleR)
)

func oracleFp(z *fp.Element) *big.Int {
	var buf [fp.Bytes]byte
	for i := range z {
		binary.BigEndian.PutUint64(buf[fp.Bytes-8*(i+1):], z[i])
	}
	return refimpl.Fp.Mul(new(big.Int).SetBytes(buf[:]), oracleRInv)
}

func fromOracleFp(v *big.Int) (z fp.Element) {
	var buf [fp.Bytes]byte
	refimpl.Fp.Mul(v, oracleR).FillBytes(buf[:])
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[fp.Bytes-8*(i+1):])
	}
	return z
}

// towerSlots lists the tower coefficient at each power of w (v = w²).
func towerSlots(z *ext.E12) [6]*ext.E2 {
	return [6]*ext.E2{&z.C0.B0, &z.C1.B0, &z.C0.B1, &z.C1.B1, &z.C0.B2, &z.C1.B2}
}

func oracleE12(z *ext.E12) (o refimpl.E12) {
	for k, c := range towerSlots(z) {
		o[k] = refimpl.E2{A0: oracleFp(&c.A0), A1: oracleFp(&c.A1)}
	}
	return o
}

func fromOracleE12(o refimpl.E12) (z ext.E12) {
	for k, c := range towerSlots(&z) {
		*c = ext.E2{A0: fromOracleFp(o[k].A0), A1: fromOracleFp(o[k].A1)}
	}
	return z
}

// randOracleE12 draws a uniform F_p¹² element on the oracle's side.
func randOracleE12(rng *rand.Rand) (o refimpl.E12) {
	coord := func() *big.Int { return new(big.Int).Rand(rng, refimpl.Fp.M) }
	for k := range o {
		o[k] = refimpl.NewE2(coord(), coord())
	}
	return o
}

// TestFinalExponentiationAgainstRefimpl holds FinalExponentiation to the
// oracle's f^((p¹²−1)/r) — one 2,800-bit exponent, no easy part, no hard
// part, no x — on seeded random F_p¹² elements and on Miller products of
// random subgroup pairs; and expByX to the oracle's m^x on elements the
// oracle raised into the cyclotomic subgroup itself.
func TestFinalExponentiationAgainstRefimpl(t *testing.T) {
	p, r := refimpl.Fp.M, refimpl.Fr.M
	one := big.NewInt(1)
	full := new(big.Int).Exp(p, big.NewInt(12), nil)
	full.Sub(full, one)
	var rem big.Int
	if full.QuoRem(full, r, &rem); rem.Sign() != 0 {
		t.Fatal("r does not divide p¹² − 1")
	}
	rng := rand.New(rand.NewSource(91))
	inputs := []refimpl.E12{randOracleE12(rng)}
	for _, n := range []int{1, 3} {
		ps, qs := randomPairs(rng, n)
		f := MillerProduct(ps, qs, nil)
		inputs = append(inputs, oracleE12(&f))
	}
	// Cyclotomic elements for expByX, each made by the oracle: its own
	// final exponentiation outputs, and a random element raised to
	// (p⁶ − 1)(p² + 1), which maps F_p¹²* onto the whole subgroup.
	var cyclotomic []refimpl.E12
	for i, o := range inputs {
		f := fromOracleE12(o)
		got := FinalExponentiation(&f)
		want := o.Exp(full)
		if !oracleE12(&got).Equal(want) {
			t.Fatalf("input %d: FinalExponentiation differs from f^((p¹²−1)/r)", i)
		}
		cyclotomic = append(cyclotomic, want)
	}
	easy := new(big.Int).Exp(p, big.NewInt(6), nil)
	easy.Sub(easy, one)
	easy.Mul(easy, new(big.Int).Add(new(big.Int).Mul(p, p), one))
	cyclotomic = append(cyclotomic, randOracleE12(rng).Exp(easy))

	x := new(big.Int).SetUint64(BNParamX)
	for i, c := range cyclotomic {
		m := fromOracleE12(c)
		var got ext.E12
		if expByX(&got, &m); !oracleE12(&got).Equal(c.Exp(x)) {
			t.Fatalf("cyclotomic element %d: expByX differs from m^x", i)
		}
	}
}
