package groth16

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"zkrownn/internal/bn254/fr"
)

func TestProofJSONRoundTrip(t *testing.T) {
	_, vk, proof := marshalFixture(t)

	b, err := json.Marshal(proof)
	if err != nil {
		t.Fatal(err)
	}
	var got Proof
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Ar.Equal(&proof.Ar) || !got.Bs.Equal(&proof.Bs) || !got.Krs.Equal(&proof.Krs) {
		t.Fatal("proof points differ after JSON round trip")
	}

	public := cubicWitness(3)[1:cubicSystem().NbPublic]
	if err := Verify(vk, &got, public); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}

func TestVerifyingKeyJSONRoundTrip(t *testing.T) {
	_, vk, proof := marshalFixture(t)

	b, err := json.Marshal(vk)
	if err != nil {
		t.Fatal(err)
	}
	var got VerifyingKey
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.AlphaBeta.IsZero() {
		t.Fatal("e(α,β) cache not re-derived from JSON envelope")
	}
	public := cubicWitness(3)[1:cubicSystem().NbPublic]
	if err := Verify(&got, proof, public); err != nil {
		t.Fatalf("proof rejected under round-tripped vk: %v", err)
	}
}

func TestPublicInputsJSONRoundTrip(t *testing.T) {
	public := PublicInputs(cubicWitness(3)[1:cubicSystem().NbPublic])
	b, err := json.Marshal(public)
	if err != nil {
		t.Fatal(err)
	}
	var got PublicInputs
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(public) {
		t.Fatalf("length %d != %d", len(got), len(public))
	}
	for i := range got {
		if !got[i].Equal(&public[i]) {
			t.Fatalf("element %d differs after round trip", i)
		}
	}
}

func TestProofJSONRejectsTampering(t *testing.T) {
	_, _, proof := marshalFixture(t)
	b, err := json.Marshal(proof)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte of cryptographic material inside the base64 blob:
	// the decoded point must fail curve/subgroup validation.
	var env jsonEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	raw, err := base64.StdEncoding.DecodeString(env.Data)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	env.Data = base64.StdEncoding.EncodeToString(raw)
	tampered, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var got Proof
	if err := json.Unmarshal(tampered, &got); err == nil {
		t.Fatal("tampered proof envelope accepted")
	}

	// Truncated payload.
	env.Data = base64.StdEncoding.EncodeToString(raw[:len(raw)-4])
	truncated, _ := json.Marshal(env)
	if err := json.Unmarshal(truncated, &got); err == nil {
		t.Fatal("truncated proof envelope accepted")
	}

	// Unknown envelope version.
	versioned := strings.Replace(string(b), `"format":1`, `"format":9`, 1)
	if err := json.Unmarshal([]byte(versioned), &got); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future envelope version not rejected: %v", err)
	}

	// Trailing garbage after the binary encoding.
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	raw, _ = base64.StdEncoding.DecodeString(env.Data)
	env.Data = base64.StdEncoding.EncodeToString(append(raw, 0xaa))
	trailing, _ := json.Marshal(env)
	if err := json.Unmarshal(trailing, &got); err == nil {
		t.Fatal("proof envelope with trailing bytes accepted")
	}
}

// signedDecimal is the reference spelling of e, through math/big alone:
// the decimal of its representative in (−r/2, r/2).
func signedDecimal(e *fr.Element) string {
	v := e.ToBigInt()
	if v.Cmp(new(big.Int).Rsh(fr.Modulus(), 1)) > 0 {
		v.Sub(v, fr.Modulus())
	}
	return v.String()
}

// boundaryInputs is the vector at the codec's seams: 0, ±1, ±2⁶³,
// ±(2⁶⁴−1), ±2⁶⁴ (where strconv hands over to math/big), ±(r−1)/2, and a
// digest-sized element — with the reference spelling of each.
func boundaryInputs() (PublicInputs, []string) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	half := new(big.Int).Rsh(fr.Modulus(), 1)
	digest := sha256.Sum256([]byte("zkrownn public inputs"))
	var pi PublicInputs
	for _, v := range []*big.Int{
		big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 63),
		new(big.Int).Sub(two64, big.NewInt(1)), two64, half,
	} {
		var e fr.Element
		e.SetBigInt(v)
		pi = append(pi, e)
		pi = append(pi, *new(fr.Element).Neg(&e))
	}
	var d fr.Element
	d.SetBigInt(new(big.Int).SetBytes(digest[:]))
	pi = append(PublicInputs{{}}, append(pi, d)...)
	spellings := make([]string, len(pi))
	for i := range pi {
		spellings[i] = signedDecimal(&pi[i])
	}
	return pi, spellings
}

// rejectedSpellings are near misses of canonical spellings, pinned in
// testdata beside the boundary vector so every package's fuzz seeds them
// alike: (r+1)/2 — the same element as −(r−1)/2 — written positive, a
// sign where none belongs, leading zeros, space, exponent, hex, a 78-digit
// overflow, r itself, and full-width spellings with a stray character.
func rejectedSpellings(t testing.TB) []string {
	b, err := os.ReadFile(filepath.Join("testdata", "golden", "public_rejected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spellings []string
	if err := json.Unmarshal(b, &spellings); err != nil {
		t.Fatal(err)
	}
	halfUp := new(big.Int).Rsh(fr.Modulus(), 1)
	halfUp.Add(halfUp, big.NewInt(1))
	if !slices.Contains(spellings, halfUp.String()) {
		t.Fatal("public_rejected.json lost (r+1)/2, the first value past the range")
	}
	return spellings
}

// TestPublicInputsJSONRejectsNonCanonical: every near miss fails both
// decode paths, and the error names the element; older envelopes — format
// 1's hex and the CLI's former bare array — fail with the version error.
func TestPublicInputsJSONRejectsNonCanonical(t *testing.T) {
	for _, s := range rejectedSpellings(t) {
		b := []byte(`{"format":2,"elements":["0","-1","` + s + `"]}`)
		if _, ok := decodeCanonicalPublicInputs(b); ok {
			t.Errorf("one-pass decoder accepted %q", s)
		}
		var got PublicInputs
		if err := got.UnmarshalJSON(b); err == nil || !strings.Contains(err.Error(), "public input 2:") {
			t.Errorf("%q: error %v, want one naming public input 2", s, err)
		}
	}
	one := strings.Repeat("0", 63) + "1"
	for _, old := range []string{
		`{"format":1,"elements":["` + one + `"]}`,
		`["` + one + `"]`,
		" \n[]",
		`{"elements":["1"]}`,
	} {
		var got PublicInputs
		if err := json.Unmarshal([]byte(old), &got); err == nil || !strings.Contains(err.Error(), "unsupported public inputs envelope version") {
			t.Errorf("%s: error %v, want the version error", old, err)
		}
	}
}

// TestCanonicalJSONBytes pins the hand-written encoders to encoding/json:
// Proof and PublicInputs must emit exactly what json.Marshal emits for
// the envelope structs (the wire format the goldens freeze), on the
// empty, the single and the long vector, and appended behind a prefix.
func TestCanonicalJSONBytes(t *testing.T) {
	_, _, proof := marshalFixture(t)
	var bin bytes.Buffer
	if _, err := proof.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(jsonEnvelope{Format: jsonEnvelopeVersion, Data: base64.StdEncoding.EncodeToString(bin.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if got := proof.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
		t.Fatalf("Proof.AppendJSON = %s, want x%s", got, want)
	}

	rng := rand.New(rand.NewSource(3))
	boundary, _ := boundaryInputs()
	for _, n := range []int{0, 1, 2, 300} {
		pi := make(PublicInputs, n)
		env := publicInputsEnvelope{Format: publicInputsVersion, Elements: make([]string, n)}
		for i := range pi {
			switch i % 3 {
			case 0: // full width
				pi[i].SetBigInt(new(big.Int).Rand(rng, fr.Modulus()))
			case 1: // a quantized weight
				pi[i].SetInt64(int64(rng.NormFloat64() * 8192))
			default:
				pi[i] = boundary[rng.Intn(len(boundary))]
			}
			env.Elements[i] = signedDecimal(&pi[i])
		}
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if got := pi.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Fatalf("n=%d: AppendJSON = %.80s…, want x%.80s…", n, got, want)
		}
		if got, err := json.Marshal(pi); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: json.Marshal = %.80s… (%v), want %.80s…", n, got, err, want)
		}
		back, ok := decodeCanonicalPublicInputs(want)
		if !ok || back == nil || len(back) != n {
			t.Fatalf("n=%d: the canonical decoder does not take the canonical bytes", n)
		}
		for i := range back {
			if !back[i].Equal(&pi[i]) {
				t.Fatalf("n=%d: element %d differs after the canonical round trip", n, i)
			}
		}
	}

	// A nil vector still encodes as an empty list, and still vanishes
	// under omitempty.
	if got, _ := json.Marshal(PublicInputs(nil)); string(got) != `{"format":2,"elements":[]}` {
		t.Fatalf("nil vector encodes as %s", got)
	}
	type holder struct {
		P PublicInputs `json:"p,omitempty"`
	}
	if got, _ := json.Marshal(holder{}); string(got) != `{}` {
		t.Fatalf("nil vector under omitempty encodes as %s", got)
	}
}

// publicInputsJSONSeeds are the shapes the canonical decoder must either
// take or hand to encoding/json: the goldens, the boundary values and the
// near misses one element at a time, non-canonical JSON spellings of a
// valid envelope, older envelopes, and broken framing.
func publicInputsJSONSeeds(t testing.TB) [][]byte {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	public := read("public.json")
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, public, "", "  "); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		public,
		read("public_mixed.json"),
		read("proof.json"),
		pretty.Bytes(),
		[]byte(`{"elements":["-17"],"format":2}`),
		[]byte(`{"format":2,"elements":["-17"],"extra":true}`),
		[]byte(`{"format":2,"elements":["\u002d17"]}`), // an escaped sign: valid, not canonical
		[]byte(`{"format":2,"elements":["1"]}trailing`),
		[]byte(`{"format":2,"elements":["1","-1"]}`),
		[]byte(`{"format":2,"elements":["1";"-1"]}`),
		[]byte(`{"format":2,"elements":["1",]}`),
		[]byte(`{"format":2,"elements":["1","]}`),
		[]byte(`{"format":2,"elements":["1""2"]}`),
		[]byte(`{"format":2,"elements":[1]}`),
		[]byte(`{"format":2,"elements":[]}`),
		[]byte(`{"format":1,"elements":["` + strings.Repeat("0", 63) + `1"]}`),
		[]byte(`["` + strings.Repeat("0", 63) + `1"]`),
		[]byte(`{"format":3,"elements":[]}`),
		[]byte(`null`),
		nil,
	}
	_, spellings := boundaryInputs()
	for _, s := range append(spellings, rejectedSpellings(t)...) {
		seeds = append(seeds, []byte(`{"format":2,"elements":["`+s+`"]}`))
	}
	return seeds
}

// checkPublicInputsDecode holds PublicInputs.UnmarshalJSON, on any bytes
// at all, to the encoding/json decoder: same verdict, same elements, same
// error text, and a result no longer than the input could spell (an
// element takes at least four bytes: `"0",`).
func checkPublicInputsDecode(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	want, wantErr := decodePublicInputsJSON(data)
	got := PublicInputs{fr.NewElement(7)}
	gotErr := got.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("UnmarshalJSON error %v, encoding/json path %v, on %.120q", gotErr, wantErr, data)
	}
	if fast, ok := decodeCanonicalPublicInputs(data); ok {
		if wantErr != nil {
			t.Fatalf("canonical decoder accepted what encoding/json rejects (%v): %.120q", wantErr, data)
		}
		if fast == nil || len(fast) != len(want) {
			t.Fatalf("canonical decoder: %d elements (nil: %v), want %d", len(fast), fast == nil, len(want))
		}
	}
	if gotErr != nil {
		if len(got) != 1 {
			t.Fatal("a failed decode changed the receiver")
		}
		return false
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("decoded %d elements (nil: %v), encoding/json path %d (nil: %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("element %d differs from the encoding/json path", i)
		}
	}
	if 4*len(got) > len(data) {
		t.Fatalf("%d elements out of %d bytes", len(got), len(data))
	}
	return true
}

func TestPublicInputsJSONSeeds(t *testing.T) {
	accepted := 0
	for _, seed := range publicInputsJSONSeeds(t) {
		if checkPublicInputsDecode(t, seed) {
			accepted++
		}
	}
	// golden, mixed golden, pretty, reordered, unknown key, escaped sign,
	// two elements, empty, and the 12 boundary values one at a time.
	if accepted != 8+12 {
		t.Fatalf("%d seeds accepted, want %d", accepted, 8+12)
	}
}

// FuzzPublicInputsJSON is the differential fuzz of the instance decoder
// (ROADMAP item 2b): the one-pass path against encoding/json, and an
// exact round trip — what decodes re-encodes to bytes that decode to the
// same elements, and canonical bytes re-encode to themselves.
func FuzzPublicInputsJSON(f *testing.F) {
	for _, seed := range publicInputsJSONSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkPublicInputsDecode(t, data) {
			return
		}
		var pi PublicInputs
		if err := pi.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		enc := pi.AppendJSON(nil)
		if _, canonical := decodeCanonicalPublicInputs(data); canonical && !bytes.Equal(enc, data) {
			t.Fatalf("canonical bytes %.120q re-encode as %.120q: a value with two spellings", data, enc)
		}
		again, ok := decodeCanonicalPublicInputs(enc)
		if !ok || len(again) != len(pi) {
			t.Fatal("re-encoded vector is not canonical")
		}
		for i := range pi {
			if !again[i].Equal(&pi[i]) {
				t.Fatalf("element %d differs after re-encoding", i)
			}
		}
	})
}
