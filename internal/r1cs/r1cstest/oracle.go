// Package r1cstest is the test-support side of internal/r1cs, for
// _test.go files only: constraint rows written out by hand, a constructor
// that lays them out as a *r1cs.CompiledSystem (csr.go), and — in this
// file — an oracle for what every layer trusts a compiled system for:
// which witnesses satisfy it and what its digest is.
//
// The oracle shares no code with the stack: this file imports the
// standard library only (a guard test parses its import block), its field
// arithmetic is math/big reduced after every operation, and the one
// constant it hard-codes is the scalar-field modulus r. Slow on purpose.
package r1cstest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/big"
)

// r is the BN254 scalar-field modulus (the curve order).
var r, _ = new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)

// Term is one coefficient·wire entry of a row. The coefficient is any
// integer; the oracle reduces it mod r.
type Term struct {
	Wire  int
	Coeff *big.Int
}

// T is Term{wire, coeff} for the small coefficients fixtures are made of.
func T(wire int, coeff int64) Term { return Term{Wire: wire, Coeff: big.NewInt(coeff)} }

// Row is one rank-1 constraint ⟨A, w⟩ · ⟨B, w⟩ = ⟨C, w⟩. Term order is
// kept (the digest covers it) and a wire may appear more than once.
type Row struct {
	A, B, C []Term
}

// Rows is a constraint system spelled out row by row: wire 0 is the
// constant one, wires 1..NbPublic-1 the instance, the rest private.
type Rows struct {
	NbPublic, NbWires int
	Rows              []Row
}

func frAdd(a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	return s.Mod(s, r)
}

func frMul(a, b *big.Int) *big.Int {
	p := new(big.Int).Mul(a, b)
	return p.Mod(p, r)
}

// Eval computes ⟨terms, w⟩ mod r.
func Eval(terms []Term, w []*big.Int) *big.Int {
	acc := new(big.Int)
	for _, t := range terms {
		acc = frAdd(acc, frMul(new(big.Int).Mod(t.Coeff, r), new(big.Int).Mod(w[t.Wire], r)))
	}
	return acc
}

// Satisfied reports whether w satisfies every row, with the contract of
// CompiledSystem.IsSatisfied: a witness of the wrong length or whose
// constant wire is not 1 is rejected at index -1, otherwise firstBad is
// the lowest violated row (0 when ok).
func Satisfied(rows *Rows, w []*big.Int) (ok bool, firstBad int) {
	if len(w) != rows.NbWires || len(w) == 0 || new(big.Int).Mod(w[0], r).Cmp(big.NewInt(1)) != 0 {
		return false, -1
	}
	for i, row := range rows.Rows {
		if frMul(Eval(row.A, w), Eval(row.B, w)).Cmp(Eval(row.C, w)) != 0 {
			return false, i
		}
	}
	return true, 0
}

// Digest returns the circuit digest as lowercase hex — SHA-256 over the
// "zkrownn/r1cs/v1" tag, the dimensions (u32 LE), and per row and matrix
// the term count, then each term's wire (u32 LE) and canonical
// coefficient (32 bytes BE): the contract behind every key-cache file
// name and registry model ID, restated rather than shared.
func Digest(rows *Rows) string {
	h := sha256.New()
	u32 := func(v int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	h.Write([]byte("zkrownn/r1cs/v1"))
	u32(rows.NbPublic)
	u32(rows.NbWires)
	u32(len(rows.Rows))
	for _, row := range rows.Rows {
		for _, terms := range [][]Term{row.A, row.B, row.C} {
			u32(len(terms))
			for _, t := range terms {
				u32(t.Wire)
				var c [32]byte
				new(big.Int).Mod(t.Coeff, r).FillBytes(c[:])
				h.Write(c[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
