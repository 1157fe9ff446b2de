package fr

import (
	"encoding/binary"
	"math/big"
	"testing"

	"zkrownn/internal/bn254/refimpl"
)

// The differential gate against internal/bn254/refimpl, a math/big field
// that shares no code with this package. Operands are decoded as raw
// Montgomery limbs and results read back the same way, with R⁻¹ applied
// in math/big: the branch-free reductions select on raw limbs, so that is
// where the boundaries sit, and the comparison does not lean on the Mul
// it is checking.

var oracle = refimpl.Fr

// montRInv is R⁻¹ mod p for R = 2²⁵⁶.
var montRInv = oracle.Inverse(new(big.Int).Lsh(big.NewInt(1), 256))

// rawOperand decodes 32 big-endian bytes as an element's raw limbs,
// reduced mod p as every Element is.
func rawOperand(b []byte) Element {
	var buf [Bytes]byte
	oracle.Reduce(new(big.Int).SetBytes(b)).FillBytes(buf[:])
	var z Element
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[Bytes-8*(i+1):])
	}
	return z
}

// oracleValue returns the integer z stands for: raw limbs · R⁻¹ mod p.
func oracleValue(z *Element) *big.Int {
	var buf [Bytes]byte
	for i := range z {
		binary.BigEndian.PutUint64(buf[Bytes-8*(i+1):], z[i])
	}
	return oracle.Mul(new(big.Int).SetBytes(buf[:]), montRInv)
}

// arithSeeds pairs every raw boundary value with every other as x||y:
// 0, 1, p−1, p−2, (p±1)/2 and saturated limbs (2²⁵⁶−1, reduced), so raw
// sums and differences land on, and one either side of, p and 0.
func arithSeeds(m *big.Int) [][]byte {
	one := big.NewInt(1)
	half := new(big.Int).Rsh(m, 1)
	sat := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	values := []*big.Int{
		new(big.Int), one,
		new(big.Int).Sub(m, one), new(big.Int).Sub(m, big.NewInt(2)),
		half, new(big.Int).Add(half, one), sat,
	}
	var seeds [][]byte
	for _, x := range values {
		for _, y := range values {
			seed := make([]byte, 64)
			x.FillBytes(seed[:32])
			y.FillBytes(seed[32:])
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

// FuzzFrArith holds every arithmetic op, out of place and in each
// aliasing form, to the math/big oracle.
func FuzzFrArith(f *testing.F) {
	for _, seed := range arithSeeds(oracle.M) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		x, y := rawOperand(data[:32]), rawOperand(data[32:64])
		xv, yv := oracleValue(&x), oracleValue(&y)
		check := func(op string, got *Element, want *big.Int) {
			t.Helper()
			if !got.smallerThanModulus() || oracleValue(got).Cmp(want) != 0 {
				t.Fatalf("%s(x=%v, y=%v): raw %x = %v, want %v", op, xv, yv, *got, oracleValue(got), want)
			}
		}

		binops := []struct {
			name string
			op   func(z, x, y *Element) *Element
			want func(x, y *big.Int) *big.Int
		}{
			{"Add", (*Element).Add, oracle.Add},
			{"Sub", (*Element).Sub, oracle.Sub},
			{"Mul", (*Element).Mul, oracle.Mul},
		}
		for _, b := range binops {
			var z Element
			check(b.name, b.op(&z, &x, &y), b.want(xv, yv))
			z = x
			check(b.name+"(z=x)", b.op(&z, &z, &y), b.want(xv, yv))
			z = y
			check(b.name+"(z=y)", b.op(&z, &x, &z), b.want(xv, yv))
			z = x
			check(b.name+"(z=x=y)", b.op(&z, &z, &z), b.want(xv, xv))
		}

		unops := []struct {
			name string
			op   func(z, x *Element) *Element
			want func(x *big.Int) *big.Int
		}{
			{"Double", (*Element).Double, func(x *big.Int) *big.Int { return oracle.Add(x, x) }},
			{"Neg", (*Element).Neg, oracle.Neg},
			{"Square", (*Element).Square, func(x *big.Int) *big.Int { return oracle.Mul(x, x) }},
			{"Inverse", (*Element).Inverse, oracle.Inverse},
		}
		for _, u := range unops {
			var z Element
			check(u.name, u.op(&z, &x), u.want(xv))
			z = x
			check(u.name+"(z=x)", u.op(&z, &z), u.want(xv))
		}

		z := x
		check("Halve", z.Halve(), oracle.Mul(xv, oracle.Inverse(big.NewInt(2))))
		a, b := x, y
		Butterfly(&a, &b)
		check("Butterfly.a", &a, oracle.Add(xv, yv))
		check("Butterfly.b", &b, oracle.Sub(xv, yv))
	})
}
