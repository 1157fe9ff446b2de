package mont

import (
	"math/big"
	"testing"
)

// The BN254 moduli: p, the base field's, and r, the scalar field's.
const (
	modulusP = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	modulusR = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
)

// TestConstants checks each modulus's constant block against math/big.
// The arithmetic itself is checked once per modulus by the suite in
// monttest, whose rows are fp's and fr's tests.
func TestConstants(t *testing.T) {
	for _, s := range []string{modulusP, modulusR} {
		f := New("test", s)
		m, _ := new(big.Int).SetString(s, 10)
		pow := func(k uint) [4]uint64 {
			v := new(big.Int).Lsh(big.NewInt(1), k)
			return limbsOf(v.Mod(v, m))
		}
		half := new(big.Int).Add(m, big.NewInt(1))
		switch {
		case f.q != limbsOf(m) || f.Modulus().Cmp(m) != 0:
			t.Errorf("%s: q limbs %x", s, f.q)
		case f.q[0]*f.qInvNeg != ^uint64(0):
			t.Errorf("%s: q₀·qInvNeg = %#x, want −1 mod 2⁶⁴", s, f.q[0]*f.qInvNeg)
		case f.one != pow(256) || f.rSquare != pow(512) || f.rCube != pow(768):
			t.Errorf("%s: R, R², R³ = %x, %x, %x", s, f.one, f.rSquare, f.rCube)
		case f.halfPlus1 != limbsOf(half.Rsh(half, 1)):
			t.Errorf("%s: (q+1)/2 = %x", s, f.halfPlus1)
		}
	}
}

// TestNewRejects checks New's preconditions: an odd modulus, whose top
// limb is below 2⁶².
func TestNewRejects(t *testing.T) {
	for _, s := range []string{
		"not-a-number",
		"0",
		"21888242871839275222246405745257275088696311157297823662689037894645226208582", // even
		"57896044618658097711785492504343953926634992332820282019728792003956564819949", // 2²⁵⁵ − 19: top limb above 2⁶²
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%q) accepted the modulus", s)
				}
			}()
			New("test", s)
		}()
	}
}
