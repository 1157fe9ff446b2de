package ipp

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/pairing"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSRSShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	srs, err := NewSRS(5, rng) // rounds up to 8
	if err != nil {
		t.Fatal(err)
	}
	if srs.MaxN != 8 {
		t.Fatalf("MaxN = %d, want 8", srs.MaxN)
	}
	if len(srs.G1A) != 16 || len(srs.G1B) != 16 || len(srs.G2A) != 8 || len(srs.G2B) != 8 {
		t.Fatalf("table sizes %d/%d/%d/%d", len(srs.G1A), len(srs.G1B), len(srs.G2A), len(srs.G2B))
	}
	g1 := curve.G1GeneratorAffine()
	g2 := curve.G2GeneratorAffine()
	if !srs.G1A[0].Equal(&g1) || !srs.G2A[0].Equal(&g2) {
		t.Fatal("power-zero table entries are not the generators")
	}
	// Consistency across groups: e(g^{a^i}, h) == e(g, h^{a^i}).
	for i := 1; i < 4; i++ {
		left := pairing.Pair(&srs.G1A[i], &g2)
		right := pairing.Pair(&g1, &srs.G2A[i])
		if !left.Equal(&right) {
			t.Fatalf("G1A/G2A diverge at power %d", i)
		}
	}
	// VK matches the degree-one powers.
	if !srs.VK.GA.Equal(&srs.G1A[1]) || !srs.VK.HB.Equal(&srs.G2B[1]) {
		t.Fatal("verifier key does not match SRS tables")
	}

	v1, v2, w1, w2, err := srs.Keys(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != 4 || len(v2) != 4 || len(w1) != 4 || len(w2) != 4 {
		t.Fatal("key slice sizes wrong")
	}
	if !w1[0].Equal(&srs.G1A[4]) {
		t.Fatal("w1 keys must start at power n")
	}
	if _, _, _, _, err := srs.Keys(3); err == nil {
		t.Fatal("non-power-of-two size accepted")
	}
	if _, _, _, _, err := srs.Keys(16); err == nil {
		t.Fatal("over-capacity size accepted")
	}
	if _, err := NewSRS(0, rng); err == nil {
		t.Fatal("zero-size SRS accepted")
	}
}

// TestPairProductMatchesNaive: the chunked shared-accumulator products
// equal the product of per-pair pairings — for the empty product, a
// single pair, fewer pairs than fill a chunk, and a length that spans
// several chunks with a ragged last one.
func TestPairProductMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g1 := curve.G1Generator()
	g2 := curve.G2Generator()
	for _, n := range []int{0, 1, 5, 2*maxChunkPairs + 6} {
		ps := make([]curve.G1Affine, n)
		qs := make([]curve.G2Affine, n)
		for i := range ps {
			var s fr.Element
			if _, err := s.SetRandom(rng); err != nil {
				t.Fatal(err)
			}
			var p curve.G1Jac
			p.ScalarMul(&g1, &s)
			ps[i].FromJacobian(&p)
			if _, err := s.SetRandom(rng); err != nil {
				t.Fatal(err)
			}
			var q curve.G2Jac
			q.ScalarMul(&g2, &s)
			qs[i].FromJacobian(&q)
		}
		var want ext.E12
		want.SetOne()
		for i := range ps {
			e := pairing.Pair(&ps[i], &qs[i])
			want.Mul(&want, &e)
		}
		if got := PairProduct(ps, qs); !got.Equal(&want) {
			t.Fatalf("n=%d: PairProduct disagrees with per-pair products", n)
		}
		if got := PairProduct2(ps[:n/3], qs[:n/3], ps[n/3:], qs[n/3:]); !got.Equal(&want) {
			t.Fatalf("n=%d: PairProduct2 disagrees with per-pair products", n)
		}
	}
}

func TestTranscriptDeterminismAndBinding(t *testing.T) {
	run := func(mutate bool) fr.Element {
		tr := NewTranscript("test/label")
		tr.AppendUint32("n", 4)
		tr.AppendBytes("data", []byte("payload"))
		if mutate {
			tr.AppendBytes("data", []byte("payload2"))
		} else {
			tr.AppendBytes("data", []byte("payload2 "))
		}
		return tr.Challenge("x")
	}
	a, b := run(true), run(true)
	if !a.Equal(&b) {
		t.Fatal("transcript is not deterministic")
	}
	c := run(false)
	if a.Equal(&c) {
		t.Fatal("distinct transcripts collided")
	}
	// Chaining: a second challenge differs from the first.
	tr := NewTranscript("test/label")
	x := tr.Challenge("x")
	y := tr.Challenge("x")
	if x.Equal(&y) {
		t.Fatal("sequential challenges did not chain")
	}
	if x.IsZero() || y.IsZero() {
		t.Fatal("zero challenge emitted")
	}
}

func TestVerifierKeyWire(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	srs, err := NewSRS(2, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := srs.VK.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var dec VerifierKey
	if _, err := dec.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !dec.GA.Equal(&srs.VK.GA) || !dec.GB.Equal(&srs.VK.GB) ||
		!dec.HA.Equal(&srs.VK.HA) || !dec.HB.Equal(&srs.VK.HB) {
		t.Fatal("binary round trip lost a point")
	}
	// Corrupt magic.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] ^= 0xff
	if _, err := dec.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// JSON envelope, including trailing-garbage rejection.
	js, err := json.Marshal(&srs.VK)
	if err != nil {
		t.Fatal(err)
	}
	var dec2 VerifierKey
	if err := json.Unmarshal(js, &dec2); err != nil {
		t.Fatal(err)
	}
	if !dec2.GA.Equal(&srs.VK.GA) {
		t.Fatal("JSON round trip lost a point")
	}
}

// FuzzSRSVerifierKeyDecode holds the "ZKSV" decoder — reached from
// hostile bytes by an offline aggregate verify, which reads the SRS key
// out of an aggregate artifact — to two outcomes: ReadFrom either
// rejects the bytes or accepts a key that encodes back to exactly the
// bytes it consumed, and UnmarshalJSON either rejects the envelope or
// accepts a key whose binary encoding is the envelope's payload, byte
// for byte. Every accepted key pays two G2 subgroup checks, so give it
// -fuzzminimizetime 1s.
func FuzzSRSVerifierKeyDecode(f *testing.F) {
	srs, err := NewSRS(2, rand.New(rand.NewSource(99)))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := srs.VK.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	bin := buf.Bytes()
	env, err := json.Marshal(&srs.VK)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add(env)
	g2Off := 8 + 2*curve.G1CompressedSize
	for _, n := range []int{0, 4, 8, 8 + curve.G1CompressedSize, g2Off, g2Off + curve.G2CompressedSize, len(bin) - 1} {
		f.Add(bin[:n])
	}
	for _, n := range []int{0, len(env) / 2, len(env) - 1} {
		f.Add(env[:n])
	}
	for _, off := range []int{0, 4, 8, 8 + curve.G1CompressedSize, g2Off, g2Off + curve.G2CompressedSize, len(bin) - 1} {
		for bit := 0; bit < 8; bit++ {
			c := bytes.Clone(bin)
			c[off] ^= 1 << bit
			f.Add(c)
		}
	}
	f.Add(append(bytes.Clone(bin), 0))
	f.Add([]byte(`{"format":2,"data":""}`))
	f.Add([]byte(`{"format":1,"data":"!"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var vk VerifierKey
		n, err := vk.ReadFrom(bytes.NewReader(data))
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("ReadFrom reported %d bytes of a %d-byte input", n, len(data))
		}
		if err == nil {
			var out bytes.Buffer
			wrote, werr := vk.WriteTo(&out)
			if werr != nil || wrote != n || !bytes.Equal(out.Bytes(), data[:n]) {
				t.Fatalf("ReadFrom accepted %d bytes %x, which encode back as %d bytes %x (err %v)", n, data[:n], wrote, out.Bytes(), werr)
			}
		}
		var q VerifierKey
		if err := q.UnmarshalJSON(data); err == nil {
			var env struct{ Data string }
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("UnmarshalJSON accepted %q, which encoding/json rejects: %v", data, err)
			}
			payload, err := base64.StdEncoding.DecodeString(env.Data)
			if err != nil {
				t.Fatalf("UnmarshalJSON accepted %q with an undecodable payload: %v", data, err)
			}
			var out bytes.Buffer
			if _, err := q.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), payload) {
				t.Fatalf("UnmarshalJSON accepted payload %x, which encodes back as %x (err %v)", payload, out.Bytes(), err)
			}
			enc, err := q.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var back VerifierKey
			if err := back.UnmarshalJSON(enc); err != nil || back != q {
				t.Fatalf("UnmarshalJSON accepted %q; its re-encoding %q decodes to another key (err %v)", data, enc, err)
			}
		}
	})
}
