package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/core"
	"zkrownn/internal/dataset"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

// testFixture builds a tiny untrained MLP and a matching watermark key.
// MaxErrors is set to the full signature width in registration, so the
// ownership claim bit is 1 without any (slow) embedding fine-tuning —
// the service mechanics, not watermark fidelity, are under test.
func testFixture(t *testing.T) (modelJSON, keyJSON []byte) {
	return testFixtureSeed(t, 1)
}

// testFixtureSeed varies the model weights while keeping the
// architecture AND the watermark key fixed — the key's signature enters
// the circuit as constants, so only a fixed key keeps the circuit
// digest stable across seeds.
func testFixtureSeed(t *testing.T, seed int64) (modelJSON, keyJSON []byte) {
	return testFixtureKey(t, seed, 1000)
}

// testFixtureKey is testFixtureSeed with the key drawn from keySeed.
func testFixtureKey(t *testing.T, seed, keySeed int64) (modelJSON, keyJSON []byte) {
	t.Helper()
	modelRng := rand.New(rand.NewSource(seed))
	keyRng := rand.New(rand.NewSource(keySeed))
	ds, err := dataset.Generate(dataset.Config{
		Samples: 30, Dim: 6, Classes: 2, ClusterStd: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewMLP(nn.MLPConfig{In: 6, Hidden: []int{4}, Classes: 2}, modelRng)
	key, err := watermark.GenerateKey(keyRng, 1, 0, net.Layers[1].OutputSize(), 4, 2, ds.OfClass(0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	keyJSON, err = json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), keyJSON
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, data)
		}
	}
	return resp
}

func register(t *testing.T, baseURL string, maxErrors int) RegisterResponse {
	t.Helper()
	modelJSON, keyJSON := testFixture(t)
	resp, data := postJSON(t, baseURL+"/v1/models", RegisterRequest{
		Name:      "test-mlp",
		Model:     modelJSON,
		Key:       keyJSON,
		MaxErrors: maxErrors,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func waitJob(t *testing.T, baseURL, jobID string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var js JobStatus
		resp := getJSON(t, baseURL+"/v1/jobs/"+jobID, &js)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: status %d", resp.StatusCode)
		}
		switch js.Status {
		case JobDone, JobFailed:
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", jobID, js.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEndToEndOverTheWire(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	// Register: circuit compiled, setup run, VK returned.
	reg := register(t, ts.URL, 4)
	if reg.ModelID == "" || reg.VK == nil {
		t.Fatalf("register response incomplete: %+v", reg)
	}
	if reg.Constraints == 0 || reg.PublicInputs == 0 {
		t.Fatalf("register reported empty circuit: %+v", reg)
	}

	// Registry endpoints.
	var info ModelResponse
	if resp := getJSON(t, ts.URL+"/v1/models/"+reg.ModelID, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("get model: %d", resp.StatusCode)
	}
	if !info.CanProve || info.ModelID != reg.ModelID {
		t.Fatalf("model info wrong: %+v", info.ModelInfo)
	}

	// Async prove: submit, poll to completion.
	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove submit: status %d: %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("job failed: %s", js.Error)
	}
	if js.Proof == nil || len(js.PublicInputs) == 0 {
		t.Fatal("finished job has no proof/public inputs")
	}
	// Registration already ran setup for this digest → the job must hit
	// the key cache.
	if !js.SetupCached {
		t.Fatal("prove job re-ran trusted setup despite registration warm-up")
	}

	// Raw binary proof fetch must agree with the JSON envelope.
	rawResp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/proof")
	if err != nil {
		t.Fatal(err)
	}
	defer rawResp.Body.Close()
	if rawResp.StatusCode != http.StatusOK {
		t.Fatalf("proof fetch: %d", rawResp.StatusCode)
	}
	var rawProof groth16.Proof
	if _, err := rawProof.ReadFrom(rawResp.Body); err != nil {
		t.Fatal(err)
	}
	if !rawProof.Ar.Equal(&js.Proof.Ar) || !rawProof.Bs.Equal(&js.Proof.Bs) || !rawProof.Krs.Equal(&js.Proof.Krs) {
		t.Fatal("binary proof differs from JSON proof")
	}

	// Verify over the wire, concurrently. Whether these share a pairing
	// product depends on load (TestVerifyPoolBatchesUnderSaturation pins
	// that); every verdict must stand either way.
	const verifiers = 4
	results := make([]VerifyResponse, verifiers)
	var wg sync.WaitGroup
	for i := 0; i < verifiers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
				Proof:        js.Proof,
				PublicInputs: js.PublicInputs,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("verify %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			if err := json.Unmarshal(data, &results[i]); err != nil {
				t.Errorf("verify %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i, vr := range results {
		if !vr.Valid || !vr.Claim {
			t.Fatalf("verify %d rejected honest proof: %+v", i, vr)
		}
		if vr.BatchSize < 1 {
			t.Fatalf("verify %d: batch_size %d", i, vr.BatchSize)
		}
	}

	// /stats must corroborate: the engine/queue counters add up.
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.VerifyRequests != verifiers {
		t.Fatalf("stats count %d verify requests, want %d", stats.Service.VerifyRequests, verifiers)
	}
	if stats.Engine.Verifies != verifiers {
		t.Fatalf("engine checked %d proofs, want %d", stats.Engine.Verifies, verifiers)
	}
	if stats.Engine.Setups != 1 || stats.Engine.Proves != 1 {
		t.Fatalf("engine stats: %+v, want 1 setup and 1 prove", stats.Engine)
	}
	if stats.Service.JobsCompleted != 1 || stats.Service.JobsFailed != 0 {
		t.Fatalf("job stats: %+v", stats.Service)
	}

	// Idempotent re-registration: same digest, same VK, no new setup.
	reg2 := register(t, ts.URL, 4)
	if reg2.ModelID != reg.ModelID || !reg2.AlreadyRegistered || !reg2.SetupCached {
		t.Fatalf("re-registration not idempotent: %+v", reg2)
	}

	// Health.
	var health HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
	_ = srv
}

func TestVerifyRejectsMalformedAndTampered(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg := register(t, ts.URL, 4)

	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("job failed: %s", js.Error)
	}

	// Tampered proof bytes: the envelope decoder's subgroup check must
	// surface as 400, not 500.
	proofJSON, err := json.Marshal(js.Proof)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Format int    `json:"format"`
		Data   string `json:"data"`
	}
	if err := json.Unmarshal(proofJSON, &env); err != nil {
		t.Fatal(err)
	}
	tampered := []byte(fmt.Sprintf(
		`{"proof":{"format":%d,"data":"%s"},"public_inputs":%s}`,
		env.Format, "AAAA"+env.Data[4:], mustJSON(t, js.PublicInputs)))
	hresp, err := http.Post(ts.URL+"/v1/models/"+reg.ModelID+"/verify", "application/json", bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered proof: status %d (%s), want 400", hresp.StatusCode, body)
	}

	// Plain garbage body.
	hresp, err = http.Post(ts.URL+"/v1/models/"+reg.ModelID+"/verify", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", hresp.StatusCode)
	}

	// Wrong public-input arity.
	resp, data = postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
		Proof:        js.Proof,
		PublicInputs: js.PublicInputs[:1],
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short public inputs: status %d (%s), want 400", resp.StatusCode, data)
	}

	// A well-formed proof that fails verification (wrong instance) is
	// NOT a client error: 200 with valid=false.
	wrong := append(groth16.PublicInputs(nil), js.PublicInputs...)
	wrong[0].SetUint64(987654321)
	resp, data = postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
		Proof:        js.Proof,
		PublicInputs: wrong,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wrong-instance verify: status %d (%s), want 200", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid {
		t.Fatal("proof accepted under tampered public inputs")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// stallHook returns a hook that signals entered and then blocks until
// release is closed, plus a release func safe to call more than once.
func stallHook() (hook func(), entered chan struct{}, release func()) {
	// Sized so that no hooked worker ever blocks on the signal, however
	// many jobs or batches run after the test stopped listening.
	entered = make(chan struct{}, 1024)
	gate := make(chan struct{})
	var once sync.Once
	return func() { entered <- struct{}{}; <-gate }, entered, func() { once.Do(func() { close(gate) }) }
}

// TestQueueOverflowBackpressure: with every prove worker stalled and the
// queue full, the next submission bounces with 429; the accepted jobs all
// finish once the workers are released.
func TestQueueOverflowBackpressure(t *testing.T) {
	const workers, depth = 2, 2
	srv, ts := newTestServer(t, Options{QueueDepth: depth, EngineOptions: engine.Options{Workers: workers}})
	hook, entered, release := stallHook()
	srv.testJobStall = hook
	defer release()

	reg := register(t, ts.URL, 4)
	proveURL := ts.URL + "/v1/models/" + reg.ModelID + "/prove"

	// One job per worker, each picked up and stalled on the hook; then
	// depth more, which park in the queue.
	for i := 0; i < workers+depth; i++ {
		resp, data := postJSON(t, proveURL, ProveRequest{})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: %d %s", i, resp.StatusCode, data)
		}
		if i < workers {
			<-entered
		}
	}

	// The next job must bounce with 429 and carry no job id.
	resp, data := postJSON(t, proveURL, ProveRequest{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job %d: status %d (%s), want 429", workers+depth, resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err == nil && acc.JobID != "" {
		t.Fatal("rejected job must not carry a job id")
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.JobsRejected != 1 || stats.Service.QueueDepth != depth {
		t.Fatalf("jobs_rejected = %d, queue_depth = %d, want 1 and %d",
			stats.Service.JobsRejected, stats.Service.QueueDepth, depth)
	}

	release()
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/stats", &stats)
		if stats.Service.JobsCompleted == workers+depth {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accepted jobs did not finish: %+v", stats.Service)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg := register(t, ts.URL, 4)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// All routes answer 503 after Close, including verifies and proves.
	resp, _ := http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	presp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("prove after close: %d (%s), want 503", presp.StatusCode, data)
	}
	// The server-owned engine is closed too: even an empty request is
	// rejected with the lifecycle sentinel before content validation.
	if _, perr := srv.Engine().Prove(engine.Request{}); !errors.Is(perr, engine.ErrClosed) {
		t.Fatalf("engine after service Close: err = %v, want engine.ErrClosed", perr)
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	srv1, err := New(Options{RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	reg := register(t, ts1.URL, 4)
	resp, data := postJSON(t, ts1.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts1.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("job failed: %s", js.Error)
	}
	ts1.Close()
	srv1.Close()

	// Restart over the same registry directory: the record (and VK)
	// must be restored; verification works, proving needs re-registration.
	srv2, err := New(Options{RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()

	var info ModelResponse
	if resp := getJSON(t, ts2.URL+"/v1/models/"+reg.ModelID, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("restored model missing: %d", resp.StatusCode)
	}
	if info.CanProve {
		t.Fatal("restored record must not claim prove material")
	}
	resp, data = postJSON(t, ts2.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("prove on restored record: %d (%s), want 409", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts2.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
		Proof:        js.Proof,
		PublicInputs: js.PublicInputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify on restored record: %d (%s)", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid || !vr.Claim {
		t.Fatalf("restored VK rejected honest proof: %+v", vr)
	}
}

// registerSeed registers the seeded fixture in committed mode.
func registerCommitted(t *testing.T, baseURL string, seed int64) RegisterResponse {
	t.Helper()
	modelJSON, keyJSON := testFixtureSeed(t, seed)
	resp, data := postJSON(t, baseURL+"/v1/models", RegisterRequest{
		Model: modelJSON, Key: keyJSON, MaxErrors: 4, Committed: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register committed: status %d: %s", resp.StatusCode, data)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestCommittedDigestBinding exercises the committed-model variant: the
// proof's public digest must bind the registered model, the binding
// must survive a server restart (it persists with the metadata, not the
// model), and a proof for a *different* same-architecture model must be
// rejected by the digest check even though the Groth16 equation holds.
func TestCommittedDigestBinding(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Options{RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)

	reg := registerCommitted(t, ts1.URL, 1)
	if !reg.Committed {
		t.Fatalf("registration lost committed flag: %+v", reg)
	}
	resp, data := postJSON(t, ts1.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts1.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("job failed: %s", js.Error)
	}
	verify := func(ts *httptest.Server) VerifyResponse {
		resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
			Proof: js.Proof, PublicInputs: js.PublicInputs,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify: %d %s", resp.StatusCode, data)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(data, &vr); err != nil {
			t.Fatal(err)
		}
		return vr
	}
	if vr := verify(ts1); !vr.Valid || !vr.Claim {
		t.Fatalf("committed verify rejected honest proof: %+v", vr)
	}
	ts1.Close()
	srv1.Close()

	// Restart: the record is verify-only, but the digest binding must
	// still be enforced (it was persisted alongside the VK).
	srv2, err := New(Options{RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	if vr := verify(ts2); !vr.Valid || !vr.Claim {
		t.Fatalf("restored committed verify rejected honest proof: %+v", vr)
	}

	// A different model of the same architecture gets a *different*
	// committed circuit: ρ = H(weights) is baked into the constraint
	// coefficients, so committed model IDs are per-model, not
	// per-architecture — two registrations must not collide.
	reg2 := registerCommitted(t, ts2.URL, 99)
	if reg2.ModelID == reg.ModelID {
		t.Fatal("different committed models must not share a circuit digest")
	}

	// An instance naming a different digest must be rejected.
	wrong := append(groth16.PublicInputs(nil), js.PublicInputs...)
	wrong[0].SetUint64(42)
	resp, data = postJSON(t, ts2.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
		Proof: js.Proof, PublicInputs: wrong,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest-tampered verify: %d %s", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid {
		t.Fatalf("instance with a foreign digest accepted: %+v", vr)
	}
}

// TestCheckCommittedDigest pins a committed record's verdict on the
// digest branch: the one that guards proofs which satisfy the Groth16
// equation under the registered VK but name a different model digest in
// the instance.
func TestCheckCommittedDigest(t *testing.T) {
	var d fr.Element
	d.SetUint64(7)
	db := d.Bytes()
	committed := core.Spec{Committed: true, Slots: 1}
	rec := &modelRecord{recordMeta: recordMeta{Spec: committed, CommittedDigest: fmt.Sprintf("%x", db[:])}}

	var claim fr.Element
	claim.SetOne()
	if _, err := rec.verdict(groth16.PublicInputs{d, claim}); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	var other fr.Element
	other.SetUint64(8)
	if _, err := rec.verdict(groth16.PublicInputs{other, claim}); err == nil {
		t.Fatal("mismatched digest accepted")
	}
	if _, err := (&modelRecord{recordMeta: recordMeta{Spec: committed}}).verdict(groth16.PublicInputs{d, claim}); err == nil {
		t.Fatal("record without a pinned digest accepted")
	}
	if _, err := rec.verdict(nil); err == nil {
		t.Fatal("empty instance accepted")
	}
}

// TestConcurrentClients races registration, proving, verification, and
// stats polling from many goroutines — run under -race in CI.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueDepth: 64})
	reg := register(t, ts.URL, 4)

	// One finished proof to verify against.
	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("job failed: %s", js.Error)
	}

	var wg sync.WaitGroup
	jobIDs := make(chan string, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
			if resp.StatusCode == http.StatusAccepted {
				var a ProveAccepted
				if err := json.Unmarshal(data, &a); err == nil {
					jobIDs <- a.JobID
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
				Proof:        js.Proof,
				PublicInputs: js.PublicInputs,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("verify: %d %s", resp.StatusCode, data)
				return
			}
			var vr VerifyResponse
			if err := json.Unmarshal(data, &vr); err != nil || !vr.Valid {
				t.Errorf("concurrent verify rejected: %+v (%v)", vr, err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stats StatsResponse
			getJSON(t, ts.URL+"/v1/stats", &stats)
			var infos []ModelInfo
			getJSON(t, ts.URL+"/v1/models", &infos)
		}()
	}
	wg.Wait()
	close(jobIDs)
	for id := range jobIDs {
		if js := waitJob(t, ts.URL, id); js.Status != JobDone {
			t.Fatalf("concurrent job %s failed: %s", id, js.Error)
		}
	}
}

// TestCompileOnceSolveMany is the compile-once / solve-many acceptance
// check at the service level: one registration compiles the circuit
// exactly once, and N prove jobs — including suspect-model jobs — only
// rebind inputs and replay the solver program (engine solves == N,
// circuits_compiled == 1).
func TestCompileOnceSolveMany(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg := register(t, ts.URL, 4)

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Service.CircuitsCompiled != 1 {
		t.Fatalf("registration compiled %d circuits, want 1", st.Service.CircuitsCompiled)
	}

	// A different model with the SAME architecture (and the same fixed
	// key): proving it must reuse the registered compiled circuit.
	suspectJSON, _ := testFixtureSeed(t, 77)

	const jobs = 4
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		body := ProveRequest{}
		if i == jobs-1 {
			body.SuspectModel = suspectJSON
		}
		resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("prove %d: %d %s", i, resp.StatusCode, data)
		}
		var acc ProveAccepted
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, acc.JobID)
	}

	var registeredPub, suspectPub groth16.PublicInputs
	for i, id := range ids {
		js := waitJob(t, ts.URL, id)
		if js.Status != JobDone {
			t.Fatalf("job %s: %s (%s)", id, js.Status, js.Error)
		}
		if js.SolveMS <= 0 {
			t.Fatalf("job %s reports no solve time", id)
		}
		switch i {
		case 0:
			registeredPub = js.PublicInputs
		case jobs - 1:
			suspectPub = js.PublicInputs
		}
		// Every proof must verify against the registered key.
		resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
			Proof: js.Proof, PublicInputs: js.PublicInputs,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify %s: %d %s", id, resp.StatusCode, data)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(data, &vr); err != nil {
			t.Fatal(err)
		}
		if !vr.Valid {
			t.Fatalf("job %s proof rejected: %s", id, vr.Error)
		}
	}

	// The suspect instance must actually carry the suspect's weights.
	same := true
	for i := range registeredPub {
		if !registeredPub[i].Equal(&suspectPub[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("suspect job proved the registered weights")
	}

	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Service.CircuitsCompiled != 1 {
		t.Fatalf("after %d jobs the service compiled %d circuits, want exactly 1", jobs, st.Service.CircuitsCompiled)
	}
	if st.Engine.Solves != jobs {
		t.Fatalf("engine ran %d solves, want %d", st.Engine.Solves, jobs)
	}
	if st.Engine.Setups != 1 {
		t.Fatalf("engine ran %d setups, want 1", st.Engine.Setups)
	}
}

// TestSuspectArchitectureMismatchFails: a suspect whose shape differs
// from the registered architecture is rejected at input-binding time
// (no recompilation happens to discover this).
func TestSuspectArchitectureMismatchFails(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg := register(t, ts.URL, 4)

	wide := nn.NewMLP(nn.MLPConfig{In: 6, Hidden: []int{5}, Classes: 2}, rand.New(rand.NewSource(5)))
	var buf bytes.Buffer
	if err := wide.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{SuspectModel: buf.Bytes()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobFailed {
		t.Fatalf("mismatched suspect job finished as %s", js.Status)
	}
	if !strings.Contains(js.Error, "architecture mismatch") {
		t.Fatalf("unexpected error: %s", js.Error)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Service.CircuitsCompiled != 1 {
		t.Fatalf("mismatch handling compiled circuits: %d", st.Service.CircuitsCompiled)
	}
}

// TestTracedJobServesChromeTimeline: a job submitted with trace=true
// records the prover span timeline and serves it as Chrome trace-event
// JSON at /v1/jobs/{id}/trace; untraced jobs 404 there, and the
// /metrics endpoint carries the prover series the job just observed.
func TestTracedJobServesChromeTimeline(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg := register(t, ts.URL, 4)

	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{Trace: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("traced job finished as %s: %s", js.Status, js.Error)
	}
	if !js.HasTrace {
		t.Fatal("trace=true job reports has_trace=false")
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("trace content type %q", ct)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a Chrome event array: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"engine/solve", "engine/prove", "msm/A", "quotient"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %d events)", want, len(events))
		}
	}

	// An untraced job has no timeline to serve.
	resp2, data2 := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp2.StatusCode, data2)
	}
	var acc2 ProveAccepted
	if err := json.Unmarshal(data2, &acc2); err != nil {
		t.Fatal(err)
	}
	if js2 := waitJob(t, ts.URL, acc2.JobID); js2.HasTrace {
		t.Fatal("untraced job reports has_trace=true")
	}
	if r, err := http.Get(ts.URL + "/v1/jobs/" + acc2.JobID + "/trace"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("untraced job trace fetch: %d, want 404", r.StatusCode)
		}
	}

	// The prover series the jobs observed are exposed on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"zkrownn_prove_seconds_count", "zkrownn_queue_depth", "zkrownn_jobs_completed_total"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// TestSecondKeyIsItsOwnRegistration: the circuit digest names the
// watermark key, so a second key on the same model registers under its
// own ID with its own trusted setup, proves with its own key, and its
// proof is rejected under the first key's ID.
func TestSecondKeyIsItsOwnRegistration(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg1 := register(t, ts.URL, 4)
	modelJSON, key2JSON := testFixtureKey(t, 1, 1001)
	resp, data := postJSON(t, ts.URL+"/v1/models", RegisterRequest{Model: modelJSON, Key: key2JSON, MaxErrors: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register second key: status %d: %s", resp.StatusCode, data)
	}
	var reg2 RegisterResponse
	if err := json.Unmarshal(data, &reg2); err != nil {
		t.Fatal(err)
	}
	if reg2.ModelID == reg1.ModelID || reg2.AlreadyRegistered || reg2.SetupCached {
		t.Fatalf("second key: id %s (first %s), already_registered %v, setup_cached %v",
			reg2.ModelID, reg1.ModelID, reg2.AlreadyRegistered, reg2.SetupCached)
	}
	// max_errors 4 of a 4-bit signature: every model passes.
	var info ModelResponse
	getJSON(t, ts.URL+"/v1/models/"+reg2.ModelID, &info)
	if reg2.FalseClaimBound != 1 || info.FalseClaimBound != 1 {
		t.Fatalf("false-claim bound: register %v, model info %v, want 1", reg2.FalseClaimBound, info.FalseClaimBound)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Engine.Setups != 2 || stats.Service.Models != 2 {
		t.Fatalf("after two keys: %d setups, %d models, want 2 and 2", stats.Engine.Setups, stats.Service.Models)
	}

	resp, data = postJSON(t, ts.URL+"/v1/models/"+reg2.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove submit: status %d: %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("job failed: %s", js.Error)
	}
	for _, c := range []struct {
		id    string
		valid bool
	}{{reg2.ModelID, true}, {reg1.ModelID, false}} {
		resp, data := postJSON(t, ts.URL+"/v1/models/"+c.id+"/verify", VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs})
		var vr VerifyResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &vr) != nil {
			t.Fatalf("verify against %s: status %d: %s", c.id[:12], resp.StatusCode, data)
		}
		if vr.Valid != c.valid {
			t.Fatalf("second key's proof against %s: valid=%v, want %v", c.id[:12], vr.Valid, c.valid)
		}
	}
}
