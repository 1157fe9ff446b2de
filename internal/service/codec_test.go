package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
)

// benchInputs is the instance a public-instance verify of the regression
// benchmark's circuit carries — its 4,130 public wires less the constant
// one: the request the codec budgets are stated for.
const benchInputs = 4129

// codecRequestBytes is the size of codecRequest(benchInputs) on the wire:
// 7.6 bytes an input, where 64 hex digits made it 276,901 bytes.
const codecRequestBytes = 31830

// codecRequest is a decodable verify request with n public inputs: the
// proof's points are the generators (in their groups, which is all a
// decoder checks); the instance is shaped like a public-instance claim's,
// one full-width element (a digest's size) and then quantized weights at
// 16 fractional bits, signed and mostly under 2¹⁷ in magnitude.
func codecRequest(n int) *VerifyRequest {
	req := &VerifyRequest{
		Proof:        &groth16.Proof{Ar: curve.G1GeneratorAffine(), Bs: curve.G2GeneratorAffine(), Krs: curve.G1GeneratorAffine()},
		PublicInputs: make(groth16.PublicInputs, n),
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := range req.PublicInputs {
		if i == 0 {
			req.PublicInputs[i].SetBigInt(new(big.Int).Rand(rng, fr.Modulus()))
		} else {
			req.PublicInputs[i].SetInt64(int64(rng.NormFloat64() * 8192))
		}
	}
	return req
}

func sameRequest(a, b *VerifyRequest) bool {
	if (a.Proof == nil) != (b.Proof == nil) || len(a.PublicInputs) != len(b.PublicInputs) ||
		(a.PublicInputs == nil) != (b.PublicInputs == nil) {
		return false
	}
	if a.Proof != nil && !(a.Proof.Ar.Equal(&b.Proof.Ar) && a.Proof.Bs.Equal(&b.Proof.Bs) && a.Proof.Krs.Equal(&b.Proof.Krs)) {
		return false
	}
	for i := range a.PublicInputs {
		if !a.PublicInputs[i].Equal(&b.PublicInputs[i]) {
			return false
		}
	}
	return true
}

// TestVerifyRequestCanonicalBytes pins the verify path's hand-written
// framing to encoding/json so it cannot rot silently: the bytes
// AppendJSON writes (what client.Verify sends) are json.Marshal's, byte
// for byte, and the server's direct decoder takes them in a handful of
// allocations. A field added to VerifyRequest without teaching
// AppendJSON and decodeCanonical about it fails here, not in a benchmark
// three changes later.
func TestVerifyRequestCanonicalBytes(t *testing.T) {
	if n := reflect.TypeOf(VerifyRequest{}).NumField(); n != 2 {
		t.Fatalf("VerifyRequest has %d fields: AppendJSON and decodeCanonical frame exactly proof and public_inputs — teach them the new field, then update this count", n)
	}
	for _, req := range []*VerifyRequest{
		codecRequest(benchInputs), codecRequest(1), codecRequest(0),
		{PublicInputs: codecRequest(2).PublicInputs},
	} {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got := req.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %.100s…, json.Marshal = %.100s…", got, want)
		}
		var back VerifyRequest
		if ok := back.decodeCanonical(got); ok != (req.Proof != nil) {
			t.Fatalf("decodeCanonical = %v on the canonical bytes of a request with proof %v", ok, req.Proof != nil)
		} else if ok && !sameRequest(&back, req) {
			t.Fatal("canonical round trip changed the request")
		}
		var ref VerifyRequest
		if err := decodeStrict(bytes.NewReader(got), &ref); err != nil || !sameRequest(&ref, req) {
			t.Fatalf("encoding/json does not read the canonical bytes back: %v", err)
		}
	}

	req := codecRequest(benchInputs)
	body := req.AppendJSON(nil)
	if len(body) != codecRequestBytes {
		t.Errorf("a %d-input request is %d bytes on the wire, want %d", benchInputs, len(body), codecRequestBytes)
	}
	if allocs := testing.AllocsPerRun(10, func() { req.AppendJSON(nil) }); allocs > 10 {
		t.Errorf("encoding a %d-input request allocates %.0f times, want ≤ 10", benchInputs, allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		var back VerifyRequest
		if !back.decodeCanonical(body) {
			t.Fatal("canonical bytes took the fallback")
		}
	}); allocs > 10 {
		// encoding/json makes thousands.
		t.Errorf("decoding a %d-input request allocates %.0f times, want ≤ 10: the direct path is not being taken", benchInputs, allocs)
	}
}

// verifyRequestSeeds: a canonical request from the groth16 goldens, the
// spellings encoding/json must take instead, the malformed ones, and the
// instance's boundary values and near misses one element at a time.
func verifyRequestSeeds(t testing.TB) [][]byte {
	proof, public, mixed := goldenJSON(t, "proof.json"), goldenJSON(t, "public.json"), goldenJSON(t, "public_mixed.json")
	canonical := `{"proof":` + proof + `,"public_inputs":` + public + `}`
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, []byte(canonical), "", "\t"); err != nil {
		t.Fatal(err)
	}
	big := codecRequest(40).AppendJSON(nil)
	seeds := [][]byte{
		[]byte(canonical),
		big,
		pretty.Bytes(),
		[]byte(`{"public_inputs":` + public + `,"proof":` + proof + `}`),
		[]byte(`{"proof":` + proof + `,"public_inputs":` + public + `,"note":"x"}`),
		[]byte(canonical + "\n"),
		[]byte(canonical + "trailing"),
		[]byte(canonical + canonical),
		[]byte(`{"proof":null,"public_inputs":` + public + `}`),
		[]byte(`{"proof":` + proof + `,"public_inputs":null}`),
		[]byte(`{"proof":` + proof + `}`),
		[]byte(`{"proof":` + strings.Replace(proof, `"format":1`, `"format":2`, 1) + `,"public_inputs":` + public + `}`),
		[]byte(`{"proof":` + strings.Replace(proof, "WktQ", "AAAA", 1) + `,"public_inputs":` + public + `}`),
		[]byte(`{"proof":` + strings.Replace(proof, `=="`, "=\n=\"", 1) + `,"public_inputs":` + public + `}`),
		[]byte(`{"proof":` + proof + `,"public_inputs":` + strings.ToUpper(public) + `}`),
		[]byte(`{"proof":` + proof + `,"public_inputs":` + mixed + `}`),
		[]byte(`{"proof":` + proof + `,"public_inputs":` + strings.Replace(public, `"format":2`, `"format":1`, 1) + `}`),
		[]byte(`{"proof":` + proof + `,"public_inputs":["` + strings.Repeat("0", 62) + `23"]}`),
		[]byte(canonical[:len(canonical)/2]),
		[]byte(`{not json`),
		nil,
	}
	for _, s := range instanceSpellings(t) {
		seeds = append(seeds, []byte(`{"proof":`+proof+`,"public_inputs":{"format":2,"elements":["`+s+`"]}}`))
	}
	return seeds
}

// goldenJSON reads one of the groth16 package's pinned wire vectors.
func goldenJSON(t testing.TB, name string) string {
	b, err := os.ReadFile(filepath.Join("..", "groth16", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// instanceSpellings are the elements of the pinned boundary vector (zero,
// ±1, ±2⁶³, ±(2⁶⁴−1), ±2⁶⁴, ±(r−1)/2, a digest), which decode, then the
// pinned near misses the groth16 fuzz is seeded with, which do not.
func instanceSpellings(t testing.TB) []string {
	var env struct{ Elements []string }
	if err := json.Unmarshal([]byte(goldenJSON(t, "public_mixed.json")), &env); err != nil {
		t.Fatal(err)
	}
	var rejected []string
	if err := json.Unmarshal([]byte(goldenJSON(t, "public_rejected.json")), &rejected); err != nil {
		t.Fatal(err)
	}
	return append(env.Elements, rejected...)
}

// checkVerifyRequestDecode holds the handler's decoder, on any body, to
// encoding/json alone: same verdict, same request, same error text; the
// fallback series counts exactly the bodies the direct path declined.
func checkVerifyRequestDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var want VerifyRequest
	wantErr := decodeStrict(bytes.NewReader(body), &want)

	var fast VerifyRequest
	direct := fast.decodeCanonical(body)
	if direct && (wantErr != nil || !sameRequest(&fast, &want)) {
		t.Fatalf("the direct decoder accepted %.200q; encoding/json says %v", body, wantErr)
	}

	s := &Server{m: newMetrics(func() float64 { return 0 })}
	var got VerifyRequest
	gotErr := s.decodeVerifyRequest(bytes.NewReader(body), &got)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decodeVerifyRequest error %v, encoding/json %v, on %.200q", gotErr, wantErr, body)
	}
	if gotErr == nil && !sameRequest(&got, &want) {
		t.Fatalf("decodeVerifyRequest and encoding/json disagree on %.200q", body)
	}
	if fell := s.m.verifyDecodeFallbacks.Value() == 1; fell == direct {
		t.Fatalf("fallback counted: %v, direct path taken: %v", fell, direct)
	}
	if 4*len(got.PublicInputs) > len(body) {
		t.Fatalf("%d inputs out of a %d-byte body", len(got.PublicInputs), len(body))
	}
	return gotErr == nil
}

func TestVerifyRequestDecodeSeeds(t *testing.T) {
	accepted := 0
	for _, seed := range verifyRequestSeeds(t) {
		if checkVerifyRequestDecode(t, seed) {
			accepted++
		}
	}
	// canonical, 40 inputs, pretty, reordered, unknown key, trailing
	// newline, null proof, missing public_inputs, upper-case keys (JSON
	// keys match either case), the boundary vector, and its 12 elements
	// one at a time. (A null or missing member decodes; the handler
	// refuses it afterwards.)
	if accepted != 10+12 {
		t.Fatalf("%d seeds decode, want %d", accepted, 10+12)
	}
}

// FuzzVerifyRequestDecode is the differential fuzz of the verify route's
// body decoder (ROADMAP item 2b).
func FuzzVerifyRequestDecode(f *testing.F) {
	for _, seed := range verifyRequestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkVerifyRequestDecode(t, body)
	})
}

// aggregateRequestSeeds: /v1/aggregate bodies — one instance per proof —
// built from the goldens, re-spelled, and broken in the ways a verify
// request can be, plus the instance's boundary values and near misses.
func aggregateRequestSeeds(t testing.TB) [][]byte {
	proof, public, mixed := goldenJSON(t, "proof.json"), goldenJSON(t, "public.json"), goldenJSON(t, "public_mixed.json")
	two := `{"model_id":"m","proofs":[` + proof + `,` + proof + `],"public_inputs":[` + public + `,` + mixed + `]}`
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, []byte(two), "", " "); err != nil {
		t.Fatal(err)
	}
	large, err := json.Marshal(AggregateRequest{
		ModelID: "m", Proofs: []*groth16.Proof{codecRequest(40).Proof}, PublicInputs: []groth16.PublicInputs{codecRequest(40).PublicInputs},
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		[]byte(two),
		large,
		pretty.Bytes(),
		[]byte(`{"model_id":"m","proofs":[],"public_inputs":[]}`),
		[]byte(`{"model_id":"m","proofs":[null],"public_inputs":[null]}`),
		[]byte(`{"model_id":"m","proofs":[null],"public_inputs":[` + public + `]}`),
		[]byte(`{"model_id":"m","proofs":null,"public_inputs":null}`),
		[]byte(`{"public_inputs":[` + public + `],"proofs":[` + proof + `],"model_id":"\u006d"}`),
		[]byte(`{"model_id":"m","proofs":[` + proof + `],"public_inputs":[` + strings.Replace(public, `"format":2`, `"format":1`, 1) + `]}`),
		[]byte(`{"model_id":"m","proofs":[` + proof + `],"public_inputs":[["35"]]}`),
		[]byte(`{"model_id":"m","proofs":[` + proof + `],"public_inputs":` + public + `}`),
		[]byte(two + "[]"),
		[]byte(two[:len(two)/2]),
		nil,
	}
	for _, s := range instanceSpellings(t) {
		seeds = append(seeds, []byte(`{"model_id":"m","proofs":[`+proof+`],"public_inputs":[{"format":2,"elements":["`+s+`"]}]}`))
	}
	return seeds
}

// checkAggregateRequestDecode holds the aggregate route's decoder to the
// codec invariant: an error or an exact round trip — what decodes
// re-encodes to bytes that decode to the same request and re-encode to
// themselves — with the heap it takes bounded by the body, and no more
// decoded than the body could spell (an element takes at least four
// bytes, `"0",`, and a proof five, `null,`).
func checkAggregateRequestDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var req AggregateRequest
	before := heapAllocated()
	err := decodeStrict(bytes.NewReader(body), &req)
	// The decoder's buffer, a string and an element per spelled element,
	// a proof's points per envelope: a small multiple of the body. The
	// constant covers encoding/json's own and the counter's lag: it takes
	// in a cached span's allocations when the span is handed back, some of
	// them made before the decode.
	if grew, bound := heapAllocated()-before, uint64(1<<20+64*len(body)); grew > bound {
		t.Fatalf("decoding a %d-byte body allocated %d bytes (bound %d)", len(body), grew, bound)
	}
	if err != nil {
		return false
	}
	elements := 0
	for _, pi := range req.PublicInputs {
		elements += len(pi)
	}
	if 4*elements+5*len(req.Proofs) > len(body) {
		t.Fatalf("%d elements and %d proofs out of a %d-byte body", elements, len(req.Proofs), len(body))
	}
	enc, err := json.Marshal(&req)
	if err != nil {
		t.Fatalf("a decoded request does not encode: %v", err)
	}
	var back AggregateRequest
	if err := decodeStrict(bytes.NewReader(enc), &back); err != nil {
		t.Fatalf("re-encoded request %.200q does not decode: %v", enc, err)
	}
	if back.ModelID != req.ModelID || len(back.Proofs) != len(req.Proofs) || len(back.PublicInputs) != len(req.PublicInputs) {
		t.Fatalf("round trip changed the request's shape: %.200q", body)
	}
	for i := range req.Proofs {
		if !sameRequest(&VerifyRequest{Proof: back.Proofs[i]}, &VerifyRequest{Proof: req.Proofs[i]}) {
			t.Fatalf("proof %d changed in the round trip", i)
		}
	}
	for i := range req.PublicInputs {
		if !sameRequest(&VerifyRequest{PublicInputs: back.PublicInputs[i]}, &VerifyRequest{PublicInputs: req.PublicInputs[i]}) {
			t.Fatalf("instance %d changed in the round trip", i)
		}
	}
	if again, err := json.Marshal(&back); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not a fixed point: %.200q then %.200q (%v)", enc, again, err)
	}
	return true
}

// heapAllocated is the bytes this process has allocated on the heap so far.
func heapAllocated() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func TestAggregateRequestDecodeSeeds(t *testing.T) {
	accepted := 0
	for _, seed := range aggregateRequestSeeds(t) {
		if checkAggregateRequestDecode(t, seed) {
			accepted++
		}
	}
	// two, 40 inputs, pretty, empty lists, a null proof, null lists, an
	// escaped key, and the 12 boundary values one at a time. (A null proof
	// decodes; the handler refuses it afterwards. A null instance does not.)
	if accepted != 7+12 {
		t.Fatalf("%d seeds decode, want %d", accepted, 7+12)
	}
}

// FuzzAggregateRequestDecode fuzzes the /v1/aggregate body (ROADMAP item
// 2b): it carries one instance per proof through encoding/json alone.
func FuzzAggregateRequestDecode(f *testing.F) {
	for _, seed := range aggregateRequestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAggregateRequestDecode(t, body)
	})
}

// TestVerifyDecodePathsOverTheWire: the canonical bytes and a re-spelled
// copy of them get the same verdict, only the second is counted as a
// fallback — in /v1/stats and on /metrics — and bytes after the request
// object are refused on both verify routes, whichever path decodes.
func TestVerifyDecodePathsOverTheWire(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg, js := proveOne(t, ts.URL)
	post := func(url string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	fallbacks := func() uint64 {
		var st StatsResponse
		getJSON(t, ts.URL+"/v1/stats", &st)
		if got := scrape(t, ts.URL)["zkrownn_verify_decode_fallback_total"]; got != float64(st.Service.VerifyDecodeFallbacks) {
			t.Fatalf("/metrics says %v fallbacks, /v1/stats %d", got, st.Service.VerifyDecodeFallbacks)
		}
		return st.Service.VerifyDecodeFallbacks
	}

	canonical := (&VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs}).AppendJSON(nil)
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	url := verifyURL(ts.URL, reg.ModelID)
	for i, body := range [][]byte{canonical, pretty.Bytes()} {
		status, data := post(url, body)
		var vr VerifyResponse
		if err := json.Unmarshal([]byte(data), &vr); err != nil || status != http.StatusOK || !vr.Valid || !vr.Claim {
			t.Fatalf("body %d: status %d, %s", i, status, data)
		}
		if got := fallbacks(); got != uint64(i) {
			t.Fatalf("after body %d: %d decode fallbacks, want %d", i, got, i)
		}
	}

	for i, body := range [][]byte{append(canonical[:len(canonical):len(canonical)], "{}"...), append(pretty.Bytes(), 'x')} {
		if status, data := post(url, body); status != http.StatusBadRequest || !strings.Contains(data, "trailing data") {
			t.Fatalf("verify with trailing bytes (%d): status %d, %s", i, status, data)
		}
	}
	agg, err := json.Marshal(AggregateRequest{
		ModelID: reg.ModelID, Proofs: []*groth16.Proof{js.Proof}, PublicInputs: []groth16.PublicInputs{js.PublicInputs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, data := post(ts.URL+"/v1/aggregate", append(agg, "\n "...)); status != http.StatusOK {
		t.Fatalf("aggregate with trailing whitespace: status %d, %s", status, data)
	}
	if status, data := post(ts.URL+"/v1/aggregate", append(agg, "[]"...)); status != http.StatusBadRequest || !strings.Contains(data, "trailing data") {
		t.Fatalf("aggregate with trailing bytes: status %d, %s", status, data)
	}
}

// postBytes posts body as is and returns the status and response body.
func postBytes(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestRegisterRejectsTrailingBytes: POST /v1/models takes one request
// object and nothing after it but whitespace, as /verify does.
func TestRegisterRejectsTrailingBytes(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	modelJSON, keyJSON := testFixture(t)
	body, err := json.Marshal(RegisterRequest{Model: modelJSON, Key: keyJSON, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"{}", "x", `{"max_errors":8}`} {
		if status, data := postBytes(t, ts.URL+"/v1/models", append(body[:len(body):len(body)], tail...)); status != http.StatusBadRequest || !strings.Contains(data, "trailing data") {
			t.Fatalf("register with trailing %q: status %d, %s", tail, status, data)
		}
	}
	if n := len(srv.reg.list()); n != 0 {
		t.Fatalf("%d models registered by refused requests", n)
	}
}

// TestProveRejectsTrailingBytes: POST /v1/models/{id}/prove likewise, and
// a refused body queues no job. Trailing whitespace is no reason to
// refuse, on either route.
func TestProveRejectsTrailingBytes(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	modelJSON, keyJSON := testFixture(t)
	body, err := json.Marshal(RegisterRequest{Model: modelJSON, Key: keyJSON, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	status, data := postBytes(t, ts.URL+"/v1/models", append(body, "\n \t"...))
	var reg RegisterResponse
	if err := json.Unmarshal([]byte(data), &reg); err != nil || status != http.StatusOK {
		t.Fatalf("register with trailing whitespace: status %d, %s", status, data)
	}
	url := ts.URL + "/v1/models/" + reg.ModelID + "/prove"
	for _, body := range []string{`{}{}`, `{"suspect_models":null}x`, `{} []`} {
		if status, data := postBytes(t, url, []byte(body)); status != http.StatusBadRequest || !strings.Contains(data, "trailing data") {
			t.Fatalf("prove with body %q: status %d, %s", body, status, data)
		}
	}
	if n := srv.m.jobsSubmitted.Value(); n != 0 {
		t.Fatalf("%d jobs submitted by refused requests", n)
	}
	status, data = postBytes(t, url, []byte("{}\n"))
	if status != http.StatusAccepted {
		t.Fatalf("prove with trailing whitespace: status %d, %s", status, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal([]byte(data), &acc); err != nil {
		t.Fatal(err)
	}
	if js := waitJob(t, ts.URL, acc.JobID); js.Status != JobDone {
		t.Fatalf("job %s: %s (%s)", acc.JobID, js.Status, js.Error)
	}
}

// BenchmarkVerifyRequestCodec: what a public-instance verify spends
// outside the pairing, per side of the wire. encode is client.Verify's
// AppendJSON, decode the server's direct path; the json- variants are
// the encoding/json passes they replace, kept as the yardstick.
func BenchmarkVerifyRequestCodec(b *testing.B) {
	req := codecRequest(benchInputs)
	body := req.AppendJSON(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			req.AppendJSON(nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var back VerifyRequest
			if !back.decodeCanonical(body) {
				b.Fatal("canonical bytes took the fallback")
			}
		}
	})
	b.Run("json-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back VerifyRequest
			if err := decodeStrict(bytes.NewReader(body), &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
