package service

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/par"
)

// reply is one answered POST: the status and the raw body.
type reply struct {
	status int
	body   []byte
}

// goPost sends body to url from its own goroutine and delivers the
// answer on the returned channel (transport errors fail the test).
func goPost(t *testing.T, url string, body any) <-chan reply {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Errorf("POST %s: %v", url, err)
			ch <- reply{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		ch <- reply{resp.StatusCode, data}
	}()
	return ch
}

// await returns the reply, failing the test if it takes longer than d.
func await(t *testing.T, ch <-chan reply, d time.Duration, what string) reply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(d):
		t.Fatalf("%s: no answer within %v", what, d)
		return reply{}
	}
}

// verdict decodes a 200 verify reply.
func verdict(t *testing.T, r reply, what string) VerifyResponse {
	t.Helper()
	if r.status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, r.status, r.body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(r.body, &vr); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return vr
}

func verifyURL(base, modelID string) string { return base + "/v1/models/" + modelID + "/verify" }

// holdVerifiers occupies every verifier goroutine of srv with one verify
// request each, stalled on the test hook, and returns the pending
// replies of those requests plus the func that lets all of them go.
func holdVerifiers(t *testing.T, srv *Server, url string, req VerifyRequest) (held []<-chan reply, release func()) {
	t.Helper()
	hook, entered, release := stallHook()
	srv.testVerifyStall = hook
	t.Cleanup(release)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		held = append(held, goPost(t, url, req))
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("verifier %d of %d never picked up a request", i+1, runtime.GOMAXPROCS(0))
		}
	}
	return held, release
}

// waitQueued blocks until n items wait on the verify queue.
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.verify.mu.Lock()
		got := len(srv.verify.queue)
		srv.verify.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("verify queue holds %d items, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server started:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func tampered(p *groth16.Proof) *groth16.Proof {
	bad := *p
	bad.Ar, bad.Krs = bad.Krs, bad.Ar
	return &bad
}

// TestVerifyPoolIdle: a verify on an idle server is checked at once, on
// its own.
func TestVerifyPoolIdle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg, js := proveOne(t, ts.URL)
	r := await(t, goPost(t, verifyURL(ts.URL, reg.ModelID), VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs}),
		10*time.Second, "idle verify")
	if vr := verdict(t, r, "idle verify"); !vr.Valid || vr.BatchSize != 1 {
		t.Fatalf("idle verify: %+v, want valid with batch_size 1", vr)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.VerifyRequests != 1 || stats.Service.VerifyBatchCalls != 0 || stats.Service.VerifyBatchedRequests != 0 {
		t.Fatalf("idle verify counted as a batch: %+v", stats.Service)
	}
}

// TestVerifyPoolBatchesUnderSaturation: requests that queue because
// every verifier is busy are folded per model — one BatchVerify of five
// and one of two — and nothing else is.
func TestVerifyPoolBatchesUnderSaturation(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	regA, jsA := proveOne(t, ts.URL)
	regB := registerCommitted(t, ts.URL, 1)
	jsB := proveModel(t, ts.URL, regB.ModelID)
	reqs := map[byte]VerifyRequest{
		'A': {Proof: jsA.Proof, PublicInputs: jsA.PublicInputs},
		'B': {Proof: jsB.Proof, PublicInputs: jsB.PublicInputs},
	}
	urls := map[byte]string{'A': verifyURL(ts.URL, regA.ModelID), 'B': verifyURL(ts.URL, regB.ModelID)}

	held, release := holdVerifiers(t, srv, urls['A'], reqs['A'])
	const order = "ABAABAA"
	var queued []<-chan reply
	for i := range order {
		queued = append(queued, goPost(t, urls[order[i]], reqs[order[i]]))
		waitQueued(t, srv, i+1) // arrival order is queue order
	}
	release()

	for i, ch := range held {
		if vr := verdict(t, await(t, ch, 10*time.Second, "held verify"), "held verify"); !vr.Valid || vr.BatchSize != 1 {
			t.Fatalf("held verify %d: %+v, want valid with batch_size 1", i, vr)
		}
	}
	want := map[byte]int{'A': 5, 'B': 2}
	for i, ch := range queued {
		vr := verdict(t, await(t, ch, 10*time.Second, "queued verify"), "queued verify")
		if !vr.Valid || !vr.Claim || vr.BatchSize != want[order[i]] {
			t.Fatalf("queued verify %d (model %c): %+v, want valid with batch_size %d", i, order[i], vr, want[order[i]])
		}
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	s := stats.Service
	if s.VerifyBatchCalls != 2 || s.VerifyBatchedRequests != 7 || s.VerifyMaxBatch != 5 || s.VerifyFallbacks != 0 {
		t.Fatalf("batch counters: calls %d requests %d max %d fallbacks %d, want 2 / 7 / 5 / 0",
			s.VerifyBatchCalls, s.VerifyBatchedRequests, s.VerifyMaxBatch, s.VerifyFallbacks)
	}
	if n := uint64(len(held) + len(order)); s.VerifyRequests != n || stats.Engine.Verifies != n {
		t.Fatalf("%d verify requests, %d engine verifies, want %d of each", s.VerifyRequests, stats.Engine.Verifies, n)
	}
}

// TestVerifyPoolFallbackAttribution: a batch holding one bad proof is
// re-checked proof by proof — the bad one alone is reported invalid.
func TestVerifyPoolFallbackAttribution(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	reg, js := proveOne(t, ts.URL)
	url := verifyURL(ts.URL, reg.ModelID)
	good := VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs}

	_, release := holdVerifiers(t, srv, url, good)
	queued := []<-chan reply{
		goPost(t, url, good),
		goPost(t, url, VerifyRequest{Proof: tampered(js.Proof), PublicInputs: js.PublicInputs}),
		goPost(t, url, good),
	}
	waitQueued(t, srv, len(queued))
	release()
	for i, ch := range queued {
		vr := verdict(t, await(t, ch, 10*time.Second, "queued verify"), "queued verify")
		if vr.BatchSize != 3 || vr.Valid != (i != 1) {
			t.Fatalf("queued verify %d: %+v, want batch_size 3 and only request 1 invalid", i, vr)
		}
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.VerifyBatchCalls != 1 || stats.Service.VerifyFallbacks != 1 {
		t.Fatalf("%d batch calls with %d fallbacks, want 1 and 1",
			stats.Service.VerifyBatchCalls, stats.Service.VerifyFallbacks)
	}
}

// TestVerifyPoolAggregateIsolation: an aggregate set is folded on its
// own, so tampered plain verifies queued around it for the same model
// fail alone and the set still gets its artifact.
func TestVerifyPoolAggregateIsolation(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	reg, js := proveOne(t, ts.URL)
	url := verifyURL(ts.URL, reg.ModelID)
	bad := VerifyRequest{Proof: tampered(js.Proof), PublicInputs: js.PublicInputs}

	const n = 4
	set := AggregateRequest{ModelID: reg.ModelID}
	publics := make([][]fr.Element, n)
	for i := range publics {
		set.Proofs = append(set.Proofs, js.Proof)
		set.PublicInputs = append(set.PublicInputs, js.PublicInputs)
		publics[i] = js.PublicInputs
	}

	_, release := holdVerifiers(t, srv, url, VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs})
	before := goPost(t, url, bad)
	waitQueued(t, srv, 1)
	agg := goPost(t, ts.URL+"/v1/aggregate", set)
	waitQueued(t, srv, 2)
	after := goPost(t, url, bad)
	waitQueued(t, srv, 3)
	release()

	r := await(t, agg, 30*time.Second, "aggregate")
	if r.status != http.StatusOK {
		t.Fatalf("aggregate: status %d: %s", r.status, r.body)
	}
	var ar AggregateResponse
	if err := json.Unmarshal(r.body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Valid || ar.Error != "" || ar.Aggregate == nil || ar.BatchSize != n {
		t.Fatalf("aggregate of valid proofs failed beside tampered traffic: %+v", ar)
	}
	if err := groth16.VerifyAggregate(ar.SRSKey, reg.VK, ar.Aggregate, publics); err != nil {
		t.Fatalf("artifact does not verify client-side: %v", err)
	}
	for _, ch := range []<-chan reply{before, after} {
		if vr := verdict(t, await(t, ch, 10*time.Second, "tampered verify"), "tampered verify"); vr.Valid || vr.Error == "" {
			t.Fatalf("tampered verify accepted: %+v", vr)
		}
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.AggregateArtifacts != 1 || stats.Service.AggregateFallbacks != 0 {
		t.Fatalf("aggregate stats: %+v", stats.Service)
	}
}

// TestVerifyPoolCloseAnswersQueued: Close answers the requests queued
// behind busy verifiers with 503 without waiting for those verifiers,
// lets the held batches finish (200, or 503 if the engine got there
// first), returns promptly and leaves no goroutine behind.
func TestVerifyPoolCloseAnswersQueued(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	base := runtime.NumGoroutine()
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	reg, js := proveOne(t, ts.URL)
	url := verifyURL(ts.URL, reg.ModelID)
	req := VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs}

	held, release := holdVerifiers(t, srv, url, req)
	var queued []<-chan reply
	for i := 0; i < 3; i++ {
		queued = append(queued, goPost(t, url, req))
	}
	waitQueued(t, srv, len(queued))

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for i, ch := range queued {
		if r := await(t, ch, time.Second, "queued verify during Close"); r.status != http.StatusServiceUnavailable {
			t.Fatalf("queued verify %d: status %d (%s), want 503", i, r.status, r.body)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while verifiers still held batches")
	default:
	}
	release()
	for i, ch := range held {
		if r := await(t, ch, time.Second, "held verify during Close"); r.status != http.StatusOK && r.status != http.StatusServiceUnavailable {
			t.Fatalf("held verify %d: status %d (%s), want 200 or 503", i, r.status, r.body)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close with a queue took %v", took)
	}
	// Anything arriving now is refused by the pool itself, too.
	if out := srv.verify.do(&verifyItem{rec: &modelRecord{}}); out.err != errShutdown {
		t.Fatalf("verify after Close: %v, want errShutdown", out.err)
	}
	ts.Close()
	waitGoroutines(t, base)
}

// TestProvePoolNoHeadOfLine: with two workers, a job submitted while
// another is stalled starts — and finishes — without waiting for it.
func TestProvePoolNoHeadOfLine(t *testing.T) {
	srv, ts := newTestServer(t, Options{EngineOptions: engine.Options{Workers: 2}})
	hook, entered, release := stallHook()
	var stalled atomic.Bool // only the first job stalls
	srv.testJobStall = func() {
		if stalled.CompareAndSwap(false, true) {
			hook()
		}
	}
	defer release()

	reg := register(t, ts.URL, 4)
	submit := func() string {
		resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("prove: %d %s", resp.StatusCode, data)
		}
		var acc ProveAccepted
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		return acc.JobID
	}
	slow := submit()
	<-entered
	if js := waitJob(t, ts.URL, submit()); js.Status != JobDone {
		t.Fatalf("job behind a stalled one: %s (%s)", js.Status, js.Error)
	}
	var js JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+slow, &js)
	if js.Status == JobDone || js.Status == JobFailed {
		t.Fatalf("stalled job already %s", js.Status)
	}
	release()
	if js := waitJob(t, ts.URL, slow); js.Status != JobDone {
		t.Fatalf("stalled job: %s (%s)", js.Status, js.Error)
	}
}

// lockedBuffer is a bytes.Buffer safe to log into from many goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// explodeOnce is an engine randomness source whose first read panics —
// on whichever goroutine runs the first trusted setup — and which is
// crypto/rand from then on.
type explodeOnce struct{ once sync.Once }

func (r *explodeOnce) Read(p []byte) (int, error) {
	r.once.Do(func() { panic("boom in a trusted setup") })
	return rand.Read(p)
}

// TestHandlerPanicAnswers500: a panic on a handler's own goroutine —
// here the trusted setup a registration runs — answers that request 500
// with its request ID instead of a dropped connection, is logged with
// its stack and counted under the "http" pool; the server serves on.
func TestHandlerPanicAnswers500(t *testing.T) {
	var logs lockedBuffer
	srv, err := New(Options{
		EngineOptions: engine.Options{Rand: new(explodeOnce)},
		Logger:        slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	modelJSON, keyJSON := testFixture(t)
	regBody, err := json.Marshal(RegisterRequest{Name: "test-mlp", Model: modelJSON, Key: keyJSON, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", bytes.NewReader(regBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestIDHeader, "panic-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("registration whose setup panics: %v, want a 500", err)
	}
	var body ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError || body.RequestID != "panic-probe-1" {
		t.Fatalf("registration whose setup panics: %d %+v (%v), want 500 carrying the request ID", resp.StatusCode, body, err)
	}
	if got := srv.m.panics["http"].Value(); got != 1 {
		t.Fatalf(`zkrownn_panics_total{pool="http"} = %d, want 1`, got)
	}
	out := logs.String()
	for _, want := range []string{`msg="handler panic"`, "req_id=panic-probe-1", "boom in a trusted setup", "goroutine "} {
		if !strings.Contains(out, want) {
			t.Errorf("panic log lacks %q", want)
		}
	}
	if reg := register(t, ts.URL, 4); reg.ModelID == "" {
		t.Fatalf("registration after the panic: %+v", reg)
	}

	// A panic after part of the response went out cannot become a 500:
	// the connection is cut, so the client sees no complete answer.
	srv.mux.HandleFunc("POST /test/half-written", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":`))
		panic("boom after the header")
	})
	// A POST, so the transport does not retry it on the cut connection.
	if resp, err := http.Post(ts.URL+"/test/half-written", "application/json", nil); err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("half-written response read as complete (status %d)", resp.StatusCode)
		}
	}
	if got := srv.m.panics["http"].Value(); got != 2 {
		t.Fatalf(`zkrownn_panics_total{pool="http"} = %d after the half-written panic, want 2`, got)
	}
}

// TestPoolsRecoverFromPanic: a panic inside one prove job — on a
// goroutine par.Range started below the pool worker, the way a bug in an
// MSM cell or an FFT level would arrive — and one in a verify batch fail
// that job and answer that request 500; the workers keep serving, each
// panic is logged once with its stack and counted. A panic in a
// registration's trusted setup, ahead of both, answers that request 500
// (TestHandlerPanicAnswers500) and costs nothing else: the same model
// registers on the next try.
func TestPoolsRecoverFromPanic(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	base := runtime.NumGoroutine()
	var logs lockedBuffer
	srv, err := New(Options{
		// The one prove worker has to survive.
		EngineOptions: engine.Options{Workers: 1, Rand: new(explodeOnce)},
		Logger:        slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modelJSON, keyJSON := testFixture(t)
	regReq := RegisterRequest{Name: "test-mlp", Model: modelJSON, Key: keyJSON, MaxErrors: 4}
	if resp, data := postJSON(t, ts.URL+"/v1/models", regReq); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("registration whose setup panics answered %d %s, want 500", resp.StatusCode, data)
	}
	panics := func() uint64 { return srv.m.panics["prove"].Value() + srv.m.panics["verify"].Value() }
	before := panics()

	var proveOnce, verifyOnce sync.Once
	srv.testJobStall = func() {
		proveOnce.Do(func() { par.Range(1<<10, func(int, int) { panic("boom in a prove job") }) })
	}
	srv.testVerifyStall = func() { verifyOnce.Do(func() { panic("boom in a verify batch") }) }

	reg := register(t, ts.URL, 4) // blocked forever while the panic left the digest in flight
	if reg.SetupCached || reg.AlreadyRegistered {
		t.Fatalf("registration after the panicking one: %+v, want a fresh setup of a new record", reg)
	}
	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if js := waitJob(t, ts.URL, acc.JobID); js.Status != JobFailed || !strings.Contains(js.Error, "internal error") {
		t.Fatalf("panicking job: %s (%q), want failed with an internal error", js.Status, js.Error)
	}
	js := proveModel(t, ts.URL, reg.ModelID) // same worker, next job

	url := verifyURL(ts.URL, reg.ModelID)
	req := VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs}
	if r := await(t, goPost(t, url, req), 10*time.Second, "panicking verify"); r.status != http.StatusInternalServerError {
		t.Fatalf("panicking verify: status %d (%s), want 500", r.status, r.body)
	}
	// Every verifier is still there to be held, and serves afterwards.
	held, release := holdVerifiers(t, srv, url, req)
	release()
	for _, ch := range held {
		if vr := verdict(t, await(t, ch, 10*time.Second, "verify after panic"), "verify after panic"); !vr.Valid {
			t.Fatalf("verify after panic: %+v", vr)
		}
	}

	if got := panics() - before; got != 2 {
		t.Fatalf("zkrownn_panics_total rose by %d, want 2", got)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.JobsFailed != 1 || stats.Service.JobsCompleted != 1 {
		t.Fatalf("job stats after panic: %+v", stats.Service)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{`zkrownn_panics_total{pool="prove"}`, `zkrownn_panics_total{pool="verify"}`, `zkrownn_panics_total{pool="http"} 1`} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	out := logs.String()
	if n := strings.Count(out, `msg="worker panic"`); n != 2 {
		t.Fatalf("%d panic records logged, want 2:\n%s", n, out)
	}
	wants := []string{"pool=prove", "pool=verify", "boom in a prove job", "boom in a verify batch", "goroutine "}
	if par.Workers() > 1 {
		wants = append(wants, "par worker stack") // the chunk ran on a par goroutine, not on the pool worker
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("panic log lacks %q", want)
		}
	}
	waitGoroutines(t, base)
}
