package groth16

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
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

func TestPublicInputsJSONRejectsNonCanonical(t *testing.T) {
	// r (the field modulus) is not a canonical encoding of any element.
	over := `{"format":1,"elements":["30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001"]}`
	var got PublicInputs
	if err := json.Unmarshal([]byte(over), &got); err == nil {
		t.Fatal("non-canonical field element accepted")
	}
	// A valid 64-digit prefix followed by garbage must be rejected, not
	// silently truncated at the first non-hex rune.
	trailing := `{"format":1,"elements":["0000000000000000000000000000000000000000000000000000000000000001ZZ"]}`
	if err := json.Unmarshal([]byte(trailing), &got); err == nil {
		t.Fatal("hex element with trailing garbage accepted")
	}
	// Odd-length hex is malformed.
	odd := `{"format":1,"elements":["abc"]}`
	if err := json.Unmarshal([]byte(odd), &got); err == nil {
		t.Fatal("odd-length hex element accepted")
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
	for _, n := range []int{0, 1, 2, 300} {
		pi := make(PublicInputs, n)
		env := publicInputsEnvelope{Format: jsonEnvelopeVersion, Elements: make([]string, n)}
		for i := range pi {
			pi[i].SetBigInt(new(big.Int).Rand(rng, fr.Modulus()))
			b := pi[i].Bytes()
			env.Elements[i] = hex.EncodeToString(b[:])
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
	if got, _ := json.Marshal(PublicInputs(nil)); string(got) != `{"format":1,"elements":[]}` {
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
// take or hand to encoding/json: the golden vector, the wrong envelope,
// non-canonical spellings of a valid one, and the ways an element can be
// wrong.
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
	one := strings.Repeat("0", 63) + "1"
	return [][]byte{
		public,
		read("proof.json"),
		pretty.Bytes(),
		[]byte(`{"elements":["` + one + `"],"format":1}`),
		[]byte(`{"format":1,"elements":["` + one + `"],"extra":true}`),
		[]byte(`{"format":1,"elements":["` + strings.Repeat("AB", 16) + strings.Repeat("ab", 16) + `"]}`),
		[]byte(`{"format":1,"elements":["` + one[1:] + `"]}`),
		[]byte(`{"format":1,"elements":["0` + one + `"]}`),
		[]byte(`{"format":1,"elements":["30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001"]}`),
		[]byte(`{"format":1,"elements":["` + one + `"]}trailing`),
		[]byte(`{"format":1,"elements":["` + one + `","` + one + `"]}`),
		[]byte(`{"format":1,"elements":["` + one + `";"` + one + `"]}`),
		[]byte(`{"format":1,"elements":["` + one[:63] + `\u0031"]}`), // an escaped digit: valid, not canonical
		[]byte(`{"format":1,"elements":["` + one[:58] + `\u0031"]}`), // 64 raw bytes that spell 59 digits
		[]byte(`{"format":1,"elements":[]}`),
		[]byte(`{"format":2,"elements":[]}`),
		[]byte(`null`),
		nil,
	}
}

// checkPublicInputsDecode holds PublicInputs.UnmarshalJSON, on any bytes
// at all, to the encoding/json decoder: same verdict, same elements, same
// error text, and a result no longer than the input could spell.
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
	if len(got)*2*fr.Bytes > len(data) {
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
	// golden, pretty, reordered, unknown key, mixed case, two elements,
	// escaped digit, empty.
	if accepted != 8 {
		t.Fatalf("%d seeds accepted, want 8", accepted)
	}
}

// FuzzPublicInputsJSON is the differential fuzz of the instance decoder
// (ROADMAP item 2b): the one-pass path against encoding/json.
func FuzzPublicInputsJSON(f *testing.F) {
	for _, seed := range publicInputsJSONSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkPublicInputsDecode(t, data) {
			return
		}
		// What decodes re-encodes canonically and decodes again.
		var pi PublicInputs
		if err := pi.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		again, ok := decodeCanonicalPublicInputs(pi.AppendJSON(nil))
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
