package fr

import (
	"fmt"
	"math/big"
)

// TwoAdicity is the largest s such that 2^s divides r-1. BN254's scalar
// field supports radix-2 FFT domains of size up to 2^28.
const TwoAdicity = 28

// twoAdicRoot is a primitive 2^28-th root of unity, derived at init by
// exponentiating small candidates c to (r-1)/2^28 until the result has
// exact order 2^28 (equivalently, its 2^27-th power is not 1).
var twoAdicRoot Element

func init() {
	// Check the advertised two-adicity against the modulus.
	var rm1 big.Int
	rm1.Sub(field.Modulus(), big.NewInt(1))
	for i := 0; i < TwoAdicity; i++ {
		if rm1.Bit(i) != 0 {
			panic("fr: modulus two-adicity below advertised value")
		}
	}
	exp := new(big.Int).Rsh(&rm1, TwoAdicity)
	half := new(big.Int).Lsh(big.NewInt(1), TwoAdicity-1)
	for c := uint64(2); ; c++ {
		var cand, chk Element
		cand.SetUint64(c)
		cand.Exp(&cand, exp)
		chk.Exp(&cand, half)
		if !chk.IsOne() {
			twoAdicRoot = cand
			return
		}
	}
}

// RootOfUnity returns a primitive n-th root of unity. n must be a power
// of two not exceeding 2^TwoAdicity.
func RootOfUnity(n uint64) (Element, error) {
	if n == 0 || n&(n-1) != 0 {
		return Element{}, fmt.Errorf("fr: domain size %d is not a power of two", n)
	}
	log := 0
	for m := n; m > 1; m >>= 1 {
		log++
	}
	if log > TwoAdicity {
		return Element{}, fmt.Errorf("fr: domain size %d exceeds 2^%d", n, TwoAdicity)
	}
	w := twoAdicRoot
	for i := TwoAdicity; i > log; i-- {
		w.Square(&w)
	}
	return w, nil
}

// MultiplicativeGenerator returns a fixed element outside every proper
// power-of-two subgroup, used as the coset shift for quotient-polynomial
// evaluation. 5 is the conventional generator for BN254's scalar field;
// its primitivity with respect to the 2-adic subgroup is verified at use
// sites via coset-vanishing checks in the poly package tests.
func MultiplicativeGenerator() Element {
	var g Element
	g.SetUint64(5)
	return g
}
