package lanes

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fp"
)

// TestConsts holds p's constant block to math/big: inv is −p⁻¹ mod 2⁵²,
// SetOne writes 2²⁶⁰ mod p, and Get unpacks what Set packed, reducing a
// value below 2p to its canonical residue.
func TestConsts(t *testing.T) {
	p := fp.Modulus()
	c := NewConsts(p)
	if c.p[0]*c.inv&mask != mask {
		t.Fatalf("inv = %#x is not −p⁻¹ mod 2⁵²", c.inv)
	}
	limbsOf := func(x *big.Int) *[4]uint64 {
		var w [4]uint64
		splitLimbs(w[:], x, 64)
		return &w
	}
	var v Vec
	c.SetOne(&v)
	one := new(big.Int).Lsh(big.NewInt(1), 260)
	if got, want := c.Get(&v, 3), *limbsOf(one.Mod(one, p)); got != want {
		t.Fatalf("SetOne: lane reads %x, want 2²⁶⁰ mod p = %x", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	for _, x := range []*big.Int{big.NewInt(0), big.NewInt(1), pm1, new(big.Int).Rand(rng, p)} {
		for j, y := range []*big.Int{x, new(big.Int).Add(x, p)} {
			v.Set(j, limbsOf(y))
			if got, want := c.Get(&v, j), *limbsOf(x); got != want {
				t.Fatalf("Get(Set(%v)) = %x, want %x", y, got, want)
			}
		}
	}
}
