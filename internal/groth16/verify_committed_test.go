package groth16

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// committedSystem has the commit-to-weights instance's shape: two public
// inputs, a full-width weight digest (wire 1) and a claim bit (wire 2),
// beside the secret the digest opens to (wire 3).
func committedSystem() *r1cs.CompiledSystem {
	t := r1cstest.T
	return mustCSR(&r1cstest.Rows{NbPublic: 3, NbWires: 4, Rows: []r1cstest.Row{
		{A: []r1cstest.Term{t(2, 1)}, B: []r1cstest.Term{t(2, 1)}, C: []r1cstest.Term{t(2, 1)}}, // claim² = claim
		{A: []r1cstest.Term{t(3, 1)}, B: []r1cstest.Term{t(0, 1)}, C: []r1cstest.Term{t(1, 1)}}, // opening·1 = digest
	}})
}

// committedFixture returns a decoded key of committedSystem (every cache
// derived, as a verifier holds it), a proof, its encoding and the
// instance [digest, 1].
func committedFixture(t testing.TB) (*VerifyingKey, *Proof, []byte, []fr.Element) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x7700))
	sys := committedSystem()
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	digest := make([]byte, 32)
	rng.Read(digest)
	w := make([]fr.Element, 4)
	w[0].SetOne()
	w[1].SetBytes(digest)
	w[2].SetOne()
	w[3] = w[1]
	proof, err := Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if _, err := proof.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	return decodedCopy(t, vk), proof, enc.Bytes(), w[1:3]
}

// BenchmarkVerifyCommitted takes a served committed verify apart: decode
// (the proof's three points, B's square root and subgroup test), ic (the
// two-input multi-exponentiation), lines (B's line table), miller (the
// three-pair product over B's table and the cached γ and δ tables),
// finalexp, and total (decode plus Verify).
func BenchmarkVerifyCommitted(b *testing.B) {
	vk, proof, enc, public := committedFixture(b)
	var acc curve.G1Affine
	ic := curve.MultiExpG1(vk.IC[1:], public)
	var ic0 curve.G1Jac
	ic.AddAssign(ic0.FromAffine(&vk.IC[0]))
	acc.FromJacobian(&ic)
	var negA curve.G1Affine
	negA.Neg(&proof.Ar)
	bLines := pairing.PrecomputeLines(&proof.Bs)
	ps := []*curve.G1Affine{&negA, &acc, &proof.Krs}
	qs := []*curve.G2Affine{&proof.Bs, &vk.GammaG2, &vk.DeltaG2}
	cached := []*pairing.Lines{bLines, vk.gammaLines, vk.deltaLines}
	f := pairing.MillerProduct(ps, qs, cached)

	b.Run("decode", func(b *testing.B) {
		var p Proof
		for i := 0; i < b.N; i++ {
			if _, err := p.ReadFrom(bytes.NewReader(enc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = curve.MultiExpG1(vk.IC[1:], public)
		}
	})
	b.Run("lines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pairing.PrecomputeLines(&proof.Bs)
		}
	})
	b.Run("miller", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pairing.MillerProduct(ps, qs, cached)
		}
	})
	b.Run("finalexp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pairing.FinalExponentiation(&f)
		}
	})
	b.Run("total", func(b *testing.B) {
		var p Proof
		for i := 0; i < b.N; i++ {
			if _, err := p.ReadFrom(bytes.NewReader(enc)); err != nil {
				b.Fatal(err)
			}
			if err := Verify(vk, &p, public); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// readGolden returns a pinned vector from testdata/golden, hex dumps
// decoded.
func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(name) == ".hex" {
		if b, err = hex.DecodeString(string(bytes.ReplaceAll(bytes.TrimSpace(b), []byte("\n"), nil))); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// FuzzProofDecode feeds the same bytes to the binary decoder
// (Proof.ReadFrom) and the JSON envelope's (Proof.UnmarshalJSON). Each
// must fail or return a proof that encodes back exactly — the binary
// form to the bytes it read, the envelope to one that decodes to the
// same points — and never panic. An accepted B must have order dividing
// r, checked with the bit-serial ScalarMulBig rather than the
// endomorphism test the decoder runs. Seeds: the pinned proof.bin.hex
// and proof.json, one bit flipped in every byte, every flag bit of the
// three points flipped, and truncations.
func FuzzProofDecode(f *testing.F) {
	bin := readGolden(f, "proof.bin.hex")
	env := readGolden(f, "proof.json")
	f.Add(bin)
	f.Add(env)
	flip := func(i int, mask byte) []byte {
		c := bytes.Clone(bin)
		c[i] ^= mask
		return c
	}
	for i := range bin {
		f.Add(flip(i, 1<<(i%8)))
	}
	for _, off := range []int{8, 8 + curve.G1CompressedSize, 8 + curve.G1CompressedSize + curve.G2CompressedSize} {
		for bit := 0; bit < 8; bit++ {
			c := flip(off, 1<<bit)
			f.Add(c)
			f.Add(appendEnvelope(nil, c))
		}
	}
	for _, n := range []int{0, 7, 8, 40, 104, len(bin) - 1} {
		f.Add(bin[:n])
	}
	for _, n := range []int{0, len(env) / 2, len(env) - 1} {
		f.Add(env[:n])
	}

	r := curve.GroupOrder()
	checkPoints := func(t *testing.T, what string, p *Proof) {
		t.Helper()
		if !p.Ar.IsInfinity() && !p.Ar.IsOnCurve() || !p.Krs.IsInfinity() && !p.Krs.IsOnCurve() {
			t.Fatalf("%s: accepted a G1 point off the curve", what)
		}
		var bj, rb curve.G2Jac
		bj.FromAffine(&p.Bs)
		rb.ScalarMulBig(&bj, r)
		if !rb.IsInfinity() {
			t.Fatalf("%s: accepted B with [r]B ≠ ∞", what)
		}
	}
	same := func(a, b *Proof) bool {
		return a.Ar.Equal(&b.Ar) && a.Bs.Equal(&b.Bs) && a.Krs.Equal(&b.Krs)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if _, err := p.ReadFrom(bytes.NewReader(data)); err == nil {
			checkPoints(t, "ReadFrom", &p)
			var out bytes.Buffer
			if _, err := p.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data[:min(len(data), out.Len())]) {
				t.Fatalf("ReadFrom accepted %x, which encodes back as %x", data, out.Bytes())
			}
		}
		var q Proof
		if err := q.UnmarshalJSON(data); err == nil {
			checkPoints(t, "UnmarshalJSON", &q)
			enc := q.AppendJSON(nil)
			var back Proof
			if err := back.UnmarshalJSON(enc); err != nil || !same(&back, &q) {
				t.Fatalf("UnmarshalJSON accepted %q; its re-encoding %q decodes to another proof (err %v)", data, enc, err)
			}
		}
	})
}

// TestCommittedVerify holds the committed fixture to its verdicts: the
// instance [digest, 1] verifies, and the other claim bit, a digest off by
// one and the A-negated forgery do not.
func TestCommittedVerify(t *testing.T) {
	vk, proof, _, public := committedFixture(t)
	if err := Verify(vk, proof, public); err != nil {
		t.Fatalf("valid committed proof rejected: %v", err)
	}
	claim0 := []fr.Element{public[0], {}}
	var one fr.Element
	one.SetOne()
	offByOne := []fr.Element{public[0], public[1]}
	offByOne[0].Add(&offByOne[0], &one)
	forged := *proof
	forged.Ar.Neg(&forged.Ar)
	for name, c := range map[string]struct {
		p   *Proof
		pub []fr.Element
	}{"claim bit 0": {proof, claim0}, "digest + 1": {proof, offByOne}, "A-negated forgery": {&forged, public}} {
		if err := Verify(vk, c.p, c.pub); err == nil {
			t.Errorf("%s: Verify accepted", name)
		}
	}
}
