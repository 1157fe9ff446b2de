package groth16

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
)

// marshalFixture runs setup+prove once for the cubic toy circuit and
// hands the three artifacts to the round-trip tests.
func marshalFixture(t *testing.T) (*ProvingKey, *VerifyingKey, *Proof) {
	t.Helper()
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(42))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(sys, pk, cubicWitness(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk, proof
}

func g1Equal(a, b []curve.G1Affine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

func g2Equal(a, b []curve.G2Affine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

func assertPKEqual(t *testing.T, want, got *ProvingKey) {
	t.Helper()
	if got.DomainSize != want.DomainSize {
		t.Fatalf("DomainSize %d != %d", got.DomainSize, want.DomainSize)
	}
	if !got.AlphaG1.Equal(&want.AlphaG1) || !got.BetaG1.Equal(&want.BetaG1) || !got.DeltaG1.Equal(&want.DeltaG1) {
		t.Fatal("G1 setup points differ after round trip")
	}
	if !got.BetaG2.Equal(&want.BetaG2) || !got.DeltaG2.Equal(&want.DeltaG2) {
		t.Fatal("G2 setup points differ after round trip")
	}
	if !g1Equal(want.A, got.A) || !g1Equal(want.B1, got.B1) || !g1Equal(want.K, got.K) || !g1Equal(want.Z, got.Z) {
		t.Fatal("G1 query slices differ after round trip")
	}
	if !g2Equal(want.B2, got.B2) {
		t.Fatal("B2 slice differs after round trip")
	}
}

func TestProvingKeyRoundTrip(t *testing.T) {
	pk, _, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != pk.SizeBytes() {
		t.Fatalf("WriteTo wrote %d bytes, SizeBytes says %d", buf.Len(), pk.SizeBytes())
	}
	var got ProvingKey
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	assertPKEqual(t, pk, &got)
}

func TestProvingKeyRawRoundTrip(t *testing.T) {
	pk, _, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := openStreamed(t, buf.Bytes(), 2).Load()
	if err != nil {
		t.Fatal(err)
	}
	assertPKEqual(t, pk, got)
}

// TestRawKeyProvesIdentically is the behavioral check: a proving key
// deserialized from the raw cache format must produce proofs the
// original verifying key accepts.
func TestRawKeyProvesIdentically(t *testing.T) {
	pk, vk, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := openStreamed(t, buf.Bytes(), 0).Load()
	if err != nil {
		t.Fatal(err)
	}
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(7))
	proof, err := Prove(sys, restored, cubicWitness(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	public := cubicWitness(4)[1:2]
	if err := Verify(vk, proof, public); err != nil {
		t.Fatalf("proof from deserialized key rejected: %v", err)
	}
}

func TestVerifyingKeyRoundTrip(t *testing.T) {
	pk, vk, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := vk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != vk.SizeBytes() {
		t.Fatalf("WriteTo wrote %d bytes, SizeBytes says %d", buf.Len(), vk.SizeBytes())
	}
	var got VerifyingKey
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !got.AlphaG1.Equal(&vk.AlphaG1) || !got.BetaG2.Equal(&vk.BetaG2) ||
		!got.GammaG2.Equal(&vk.GammaG2) || !got.DeltaG2.Equal(&vk.DeltaG2) {
		t.Fatal("VK setup points differ after round trip")
	}
	if !g1Equal(vk.IC, got.IC) {
		t.Fatal("IC slice differs after round trip")
	}
	// Behavioral: the restored VK verifies a fresh proof.
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(8))
	proof, err := Prove(sys, pk, cubicWitness(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(&got, proof, cubicWitness(5)[1:2]); err != nil {
		t.Fatalf("restored VK rejects valid proof: %v", err)
	}
}

func TestProofRoundTrip(t *testing.T) {
	_, vk, proof := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := proof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got Proof
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !got.Ar.Equal(&proof.Ar) || !got.Bs.Equal(&proof.Bs) || !got.Krs.Equal(&proof.Krs) {
		t.Fatal("proof points differ after round trip")
	}
	if err := Verify(vk, &got, cubicWitness(3)[1:2]); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}

func TestMarshalRejectsWrongMagic(t *testing.T) {
	pk, _, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	// A raw-format stream must not parse as the compressed format.
	var got ProvingKey
	if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("compressed reader accepted raw-format stream")
	}
	var got2 Proof
	if _, err := got2.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("proof reader accepted proving-key stream")
	}
}

// serialPoints is the decoder readPoints replaced: the whole slice made
// up front, one point read and decoded at a time.
func serialPoints[P any](t *testing.T, r io.Reader, size int, set func(*P, []byte) error) []P {
	t.Helper()
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		t.Fatal(err)
	}
	out := make([]P, n)
	buf := make([]byte, size)
	for i := range out {
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
		if err := set(&out[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReadPointsMatchesSerialDecoder checks the chunked, parallel decoder
// against the serial one on the pinned verifying key and on runs long
// enough to span several chunks and a partial one, in all four
// encodings.
func TestReadPointsMatchesSerialDecoder(t *testing.T) {
	dump, err := os.ReadFile(filepath.Join("testdata", "golden", "vk.bin.hex"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := hex.DecodeString(string(bytes.ReplaceAll(bytes.TrimSpace(dump), []byte("\n"), nil)))
	if err != nil {
		t.Fatal(err)
	}
	var vk VerifyingKey
	if _, err := vk.ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	icOff := 8 + curve.G1CompressedSize + 3*curve.G2CompressedSize
	want := serialPoints(t, bytes.NewReader(raw[icOff:]), curve.G1CompressedSize, (*curve.G1Affine).SetBytes)
	if len(want) == 0 || !g1Equal(want, vk.IC) {
		t.Fatal("golden VK: IC differs from the serial decoder's")
	}

	const n = 2*decodeChunk + 5
	ks := make([]fr.Element, n)
	for i := range ks {
		ks[i].SetUint64(uint64(i)) // includes the point at infinity
	}
	g1, g2 := curve.G1Generator(), curve.G2Generator()
	p1 := curve.NewG1FixedBaseTable(&g1).MulBatch(ks)
	p2 := curve.NewG2FixedBaseTable(&g2).MulBatch(ks[:decodeChunk+5]) // a G2 decode checks the subgroup: keep it short
	var c1, c2, r1, r2 bytes.Buffer
	binary.Write(&c1, binary.LittleEndian, uint32(len(p1)))
	binary.Write(&r1, binary.LittleEndian, uint32(len(p1)))
	binary.Write(&c2, binary.LittleEndian, uint32(len(p2)))
	binary.Write(&r2, binary.LittleEndian, uint32(len(p2)))
	for i := range p1 {
		b, u := p1[i].Bytes(), p1[i].BytesRaw()
		c1.Write(b[:])
		r1.Write(u[:])
	}
	for i := range p2 {
		b, u := p2[i].Bytes(), p2[i].BytesRaw()
		c2.Write(b[:])
		r2.Write(u[:])
	}
	got1, err := readG1Slice(bytes.NewReader(c1.Bytes()))
	if err != nil || !g1Equal(got1, p1) {
		t.Fatalf("G1 compressed: decoded points differ from the encoded ones (err %v)", err)
	}
	got1, err = readPoints(&r1, curve.G1UncompressedSize, (*curve.G1Affine).SetBytesRaw)
	if err != nil || !g1Equal(got1, p1) {
		t.Fatalf("G1 raw: decoded points differ from the encoded ones (err %v)", err)
	}
	got2, err := readG2Slice(&c2)
	if err != nil || !g2Equal(got2, p2) {
		t.Fatalf("G2 compressed: decoded points differ from the encoded ones (err %v)", err)
	}
	got2, err = readPoints(&r2, curve.G2UncompressedSize, (*curve.G2Affine).SetBytesRaw)
	if err != nil || !g2Equal(got2, p2) {
		t.Fatalf("G2 raw: decoded points differ from the encoded ones (err %v)", err)
	}

	// The earliest bad point's error comes back, whichever worker met it.
	bad := c1.Bytes()
	bad[4+(decodeChunk+7)*curve.G1CompressedSize] = 0 // flags 0b00: invalid
	bad[4+(2*decodeChunk+1)*curve.G1CompressedSize] = 0
	if _, err := readG1Slice(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("corrupt point: got %v, want the invalid-flags error", err)
	}
}

// TestReadPointsBoundsAllocation: a hostile length prefix must not size
// an allocation. A hundred-byte envelope claiming 2²⁸ points fails with
// a read error having allocated less than a megabyte, where the decoder
// used to ask for 17 GB (G1) or 34 GB (G2) before reading a byte.
func TestReadPointsBoundsAllocation(t *testing.T) {
	pk, vk, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := vk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	icOff := 8 + curve.G1CompressedSize + 3*curve.G2CompressedSize
	hostile := append([]byte(nil), buf.Bytes()[:icOff]...)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<28)
	hostile = append(hostile, buf.Bytes()[icOff+4:icOff+4+curve.G1CompressedSize]...) // one real point, then EOF

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var err error
	got := allocated(func() {
		var out VerifyingKey
		_, err = out.ReadFrom(bytes.NewReader(hostile))
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated VK: got %v, want unexpected EOF", err)
	}
	if got >= 1<<20 {
		t.Errorf("truncated VK with a 2^28 prefix allocated %d bytes, want < 1 MiB", got)
	}
	prefix := binary.LittleEndian.AppendUint32(nil, 1<<28)
	got = allocated(func() {
		_, err = readPoints(bytes.NewReader(prefix), curve.G2UncompressedSize, (*curve.G2Affine).SetBytesRaw)
	})
	if err == nil {
		t.Fatal("empty raw G2 section behind a 2^28 prefix decoded")
	}
	if got >= 1<<20 {
		t.Errorf("raw G2 section with a 2^28 prefix allocated %d bytes, want < 1 MiB", got)
	}
	over := binary.LittleEndian.AppendUint32(nil, 1<<28+1)
	if _, err := readG1Slice(bytes.NewReader(over)); err == nil {
		t.Fatal("length prefix above the cap accepted")
	}

	// The raw key layout has one parser, the index, and it bounds every
	// section by bytes actually present before Load sizes a slice from
	// it; Load still rejects a point knocked off the curve.
	var rawKey bytes.Buffer
	if _, err := pk.WriteRawTo(&rawKey); err != nil {
		t.Fatal(err)
	}
	secA := rawPKFixedHeaderSize // section A's count, then its points
	for _, tc := range []struct {
		name   string
		mangle func(b []byte) []byte
	}{
		{"with a 2^28 count on section A", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[secA:], 1<<28)
			return b
		}},
		{"with a count above the cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[secA:], 1<<28+1)
			return b
		}},
		{"cut one byte short", func(b []byte) []byte { return b[:len(b)-1] }},
		{"with a bit flipped in A's first point", func(b []byte) []byte {
			b[secA+4+9] ^= 0x10
			return b
		}},
		{"with a bit flipped in B2's last point", func(b []byte) []byte {
			b[len(b)-9] ^= 0x10
			return b
		}},
	} {
		b := tc.mangle(append([]byte(nil), rawKey.Bytes()...))
		got = allocated(func() {
			var spk *StreamedProvingKey
			if spk, err = OpenStreamedProvingKey(bytes.NewReader(b)); err == nil {
				_, err = spk.Load()
			}
		})
		if err == nil {
			t.Errorf("raw key %s loaded", tc.name)
		}
		if got >= 1<<20 {
			t.Errorf("raw key %s allocated %d bytes before failing, want < 1 MiB", tc.name, got)
		}
	}
}
