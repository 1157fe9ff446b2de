package ext

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fp"
)

// toCyclotomic maps a random element into the cyclotomic subgroup via
// the easy part of the final exponentiation: f^((p⁶-1)(p²+1)).
func toCyclotomic(f *E12) E12 {
	var conj, inv, out, frob2 E12
	conj.Conjugate(f)
	inv.Inverse(f)
	out.Mul(&conj, &inv)
	frob2.FrobeniusSquare(&out)
	out.Mul(&frob2, &out)
	return out
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 50; i++ {
		f := randE12(rng)
		if f.IsZero() {
			continue
		}
		c := toCyclotomic(&f)
		var want, got E12
		want.Square(&c)
		got.CyclotomicSquare(&c)
		if !want.Equal(&got) {
			t.Fatalf("cyclotomic squaring disagrees with generic squaring at %d", i)
		}
	}
}

func TestCyclotomicSubgroupMembershipSanity(t *testing.T) {
	// The mapped element must satisfy x^(p⁶+1) = 1, i.e.
	// conj(x) = x⁻¹ — the property Granger-Scott exploits.
	rng := rand.New(rand.NewSource(61))
	f := randE12(rng)
	c := toCyclotomic(&f)
	var conj, inv E12
	conj.Conjugate(&c)
	inv.Inverse(&c)
	if !conj.Equal(&inv) {
		t.Fatal("easy-part output not in the cyclotomic subgroup")
	}
}

func TestCyclotomicExpMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	f := randE12(rng)
	c := toCyclotomic(&f)
	ks := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	for i := 0; i < 10; i++ {
		ks = append(ks, new(big.Int).Rand(rng, fp.Modulus()))
	}
	for i, k := range ks {
		var want, got E12
		want.Exp(&c, k)
		got.CyclotomicExp(&c, k)
		if !want.Equal(&got) {
			t.Fatalf("cyclotomic exp mismatch at %d", i)
		}
	}
}

func BenchmarkE12Square(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	f := randE12(rng)
	c := toCyclotomic(&f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Square(&c)
	}
}

func BenchmarkCyclotomicSquare(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	f := randE12(rng)
	c := toCyclotomic(&f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CyclotomicSquare(&c)
	}
}
