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
	"slices"
	"strings"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
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

// compressedPKSize is what SizeBytes reports, counted from the key's
// points: the length of every point's compressed encoding, plus 36 bytes
// of framing (header, domain size and five section counts).
func compressedPKSize(pk *ProvingKey) int64 {
	n := int64(36)
	for _, p := range slices.Concat([]curve.G1Affine{pk.AlphaG1, pk.BetaG1, pk.DeltaG1}, pk.A, pk.B1, pk.K, pk.Z) {
		b := p.Bytes()
		n += int64(len(b))
	}
	for _, p := range slices.Concat([]curve.G2Affine{pk.BetaG2, pk.DeltaG2}, pk.B2) {
		b := p.Bytes()
		n += int64(len(b))
	}
	return n
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
	var got Proof
	if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
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
	got2, err := readPoints(&c2, curve.G2CompressedSize, (*curve.G2Affine).SetBytes)
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

// TestKeyReadFromCountsBytes holds the binary decoders to io.ReaderFrom's
// contract: the count is the bytes consumed — the whole encoding on
// success, the bytes read before the error on a truncated input.
func TestKeyReadFromCountsBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		read func(io.Reader) (int64, error)
	}{
		{"vk.bin.hex", func(r io.Reader) (int64, error) { return new(VerifyingKey).ReadFrom(r) }},
		{"proof.bin.hex", func(r io.Reader) (int64, error) { return new(Proof).ReadFrom(r) }},
		{"aggregate.bin.hex", func(r io.Reader) (int64, error) { return new(AggregateProof).ReadFrom(r) }},
	} {
		enc := readGolden(t, c.name)
		// Trailing bytes stay unread.
		n, err := c.read(bytes.NewReader(append(bytes.Clone(enc), 0xAA, 0xBB)))
		if err != nil || n != int64(len(enc)) {
			t.Fatalf("%s: ReadFrom = (%d, %v), want (%d, nil)", c.name, n, err, len(enc))
		}
		for _, cut := range []int{0, 3, 8, 8 + curve.G1CompressedSize/2, len(enc) / 2, len(enc) - 1} {
			n, err := c.read(bytes.NewReader(enc[:cut]))
			if err == nil || n != int64(cut) {
				t.Fatalf("%s cut at %d: ReadFrom = (%d, %v), want (%d, an error)", c.name, cut, n, err, cut)
			}
		}
	}
}

// FuzzVerifyingKeyDecode feeds the same bytes to the verifying key's
// binary decoder and to its JSON envelope. Either one rejects them, or
// it accepts a key that encodes back to exactly what it consumed (the
// binary count n, a JSON key that decodes back to itself); it never
// panics, and it allocates in proportion to the bytes it read, past a
// fixed megabyte for the pairing precomputation and one decode chunk.
// Seeds: vk.bin.hex and vk.json, truncations, one bit flipped in every
// header and point flag byte, and hostile IC counts.
func FuzzVerifyingKeyDecode(f *testing.F) {
	bin := readGolden(f, "vk.bin.hex")
	env := readGolden(f, "vk.json")
	f.Add(bin)
	f.Add(env)
	icOff := 8 + curve.G1CompressedSize + 3*curve.G2CompressedSize
	for _, n := range []int{0, 4, 8, 40, icOff, icOff + 4, len(bin) - 1} {
		f.Add(bin[:n])
	}
	for _, n := range []int{0, len(env) / 2, len(env) - 1} {
		f.Add(env[:n])
	}
	offs := []int{0, 4, 8, 8 + curve.G1CompressedSize, 8 + curve.G1CompressedSize + curve.G2CompressedSize, icOff - curve.G2CompressedSize, icOff + 4}
	for _, off := range offs {
		for bit := 0; bit < 8; bit++ {
			c := bytes.Clone(bin)
			c[off] ^= 1 << bit
			f.Add(c)
		}
	}
	for _, count := range []uint32{0, 1, 1 << 20, 1 << 28, 1<<28 + 1, ^uint32(0)} {
		c := bytes.Clone(bin)
		binary.LittleEndian.PutUint32(c[icOff:], count)
		f.Add(c)
		f.Add(appendEnvelope(nil, c))
	}

	sameVK := func(a, b *VerifyingKey) bool {
		return a.AlphaG1.Equal(&b.AlphaG1) && a.BetaG2.Equal(&b.BetaG2) && a.GammaG2.Equal(&b.GammaG2) &&
			a.DeltaG2.Equal(&b.DeltaG2) && g1Equal(a.IC, b.IC)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var vk VerifyingKey
		var n int64
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err = vk.ReadFrom(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("ReadFrom reported %d bytes of a %d-byte input", n, len(data))
		}
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*n); got > budget {
			t.Fatalf("ReadFrom allocated %d bytes having read %d (budget %d)", got, n, budget)
		}
		if err == nil {
			var out bytes.Buffer
			wrote, werr := vk.WriteTo(&out)
			if werr != nil || wrote != n || !bytes.Equal(out.Bytes(), data[:n]) {
				t.Fatalf("ReadFrom accepted %d bytes %x, which encode back as %d bytes %x (err %v)", n, data[:n], wrote, out.Bytes(), werr)
			}
		}
		var q VerifyingKey
		if err := q.UnmarshalJSON(data); err == nil {
			enc, err := q.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var back VerifyingKey
			if err := back.UnmarshalJSON(enc); err != nil || !sameVK(&back, &q) {
				t.Fatalf("UnmarshalJSON accepted %q; its re-encoding %q decodes to another key (err %v)", data, enc, err)
			}
		}
	})
}

// FuzzAggregateProofDecode is FuzzVerifyingKeyDecode for the aggregate
// proof ("ZKAG"): its binary decoder and its JSON envelope either reject
// the bytes or accept a proof that encodes back to exactly what was
// consumed; neither panics, and the binary decoder allocates in
// proportion to the bytes it read. Seeds: aggregate.bin.hex and
// aggregate.json, truncations, one bit flipped in every header and
// count byte, and hostile counts and round counts.
func FuzzAggregateProofDecode(f *testing.F) {
	bin := readGolden(f, "aggregate.bin.hex")
	env := readGolden(f, "aggregate.json")
	f.Add(bin)
	f.Add(env)
	const countOff, roundsOff, gtOff = 8, 12, 16
	for _, n := range []int{0, 4, countOff, roundsOff, gtOff, gtOff + ext.E12Bytes, len(bin) / 2, len(bin) - 1} {
		f.Add(bin[:n])
	}
	for _, n := range []int{0, len(env) / 2, len(env) - 1} {
		f.Add(env[:n])
	}
	for off := range gtOff {
		for bit := 0; bit < 8; bit++ {
			c := bytes.Clone(bin)
			c[off] ^= 1 << bit
			f.Add(c)
		}
	}
	for _, v := range []uint32{0, 1, 2, 3, 40, 41, 1 << 31, ^uint32(0)} {
		for _, off := range []int{countOff, roundsOff} {
			c := bytes.Clone(bin)
			binary.LittleEndian.PutUint32(c[off:], v)
			f.Add(c)
			f.Add(appendEnvelope(nil, c))
		}
	}

	encode := func(a *AggregateProof) []byte {
		var b bytes.Buffer
		if _, err := a.WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a AggregateProof
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := a.ReadFrom(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("ReadFrom reported %d bytes of a %d-byte input", n, len(data))
		}
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*n); got > budget {
			t.Fatalf("ReadFrom allocated %d bytes having read %d (budget %d)", got, n, budget)
		}
		if err == nil {
			if out := encode(&a); !bytes.Equal(out, data[:n]) {
				t.Fatalf("ReadFrom accepted %d bytes %x, which encode back as %x", n, data[:n], out)
			}
		}
		var q AggregateProof
		if err := q.UnmarshalJSON(data); err == nil {
			enc, err := q.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var back AggregateProof
			if err := back.UnmarshalJSON(enc); err != nil || !bytes.Equal(encode(&back), encode(&q)) {
				t.Fatalf("UnmarshalJSON accepted %q; its re-encoding %q decodes to another proof (err %v)", data, enc, err)
			}
		}
	})
}
