// Package refimpl is a test-only reference BN254 arithmetic that shares
// no code with the stack: the prime fields F_p and F_r, F_p², F_p¹² as
// one polynomial ring, affine G1 and affine G2 on the twist. Tests hold
// fp, fr, ext and curve's G1 and G2 to it differentially; a field or group change is trusted once it
// agrees with this package on every op.
//
// Only _test.go files may import it, and its own files import the
// standard library only (surface_test.go checks both). Every value is a
// math/big integer and every operation reduces with Mod, so the oracle
// has no limbs, no Montgomery form, no carry chains and no tower — the
// places the stack's bugs would hide. The constants it hard-codes are p,
// r, ξ = 9 + u, G1's b = 3 and generator (1, 2); G2's b' = 3/ξ is
// derived, and its generator comes from the caller. Slow on purpose.
package refimpl

import "math/big"

// Field is the prime field of integers mod M. Elements are *big.Int in
// [0, M); every method returns a fresh value and leaves its operands
// alone.
type Field struct {
	M *big.Int
}

var (
	// Fp is the BN254 base field.
	Fp = newField("21888242871839275222246405745257275088696311157297823662689037894645226208583")
	// Fr is the BN254 scalar field, the order of the pairing groups.
	Fr = newField("21888242871839275222246405745257275088548364400416034343698204186575808495617")
)

func newField(decimal string) *Field {
	m, ok := new(big.Int).SetString(decimal, 10)
	if !ok {
		panic("refimpl: bad modulus literal")
	}
	return &Field{M: m}
}

// Reduce returns a mod M, for any integer a.
func (f *Field) Reduce(a *big.Int) *big.Int { return new(big.Int).Mod(a, f.M) }

// Add returns a + b mod M.
func (f *Field) Add(a, b *big.Int) *big.Int { return f.Reduce(new(big.Int).Add(a, b)) }

// Sub returns a - b mod M.
func (f *Field) Sub(a, b *big.Int) *big.Int { return f.Reduce(new(big.Int).Sub(a, b)) }

// Neg returns -a mod M.
func (f *Field) Neg(a *big.Int) *big.Int { return f.Reduce(new(big.Int).Neg(a)) }

// Mul returns a·b mod M.
func (f *Field) Mul(a, b *big.Int) *big.Int { return f.Reduce(new(big.Int).Mul(a, b)) }

// Inverse returns 1/a mod M, and 0 for a ≡ 0 (the stack's convention).
func (f *Field) Inverse(a *big.Int) *big.Int {
	inv := new(big.Int).ModInverse(f.Reduce(a), f.M)
	if inv == nil {
		return new(big.Int)
	}
	return inv
}
