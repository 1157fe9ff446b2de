package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"zkrownn/internal/groth16"
)

// statsSeries names, for every /v1/stats field (by JSON name), the
// /metrics series it is a typed view of. *_ms totals are the histogram
// sums in milliseconds. statsNotSeries lists the fields that are state
// or configuration and have no series. TestStatsAndMetricsAgree checks
// that the two together cover EngineStatsWire and ServiceStats exactly.
var (
	statsSeries = map[string]string{
		"engine.setups":        "zkrownn_setup_seconds_count",
		"engine.mem_hits":      `zkrownn_keycache_hits_total{tier="memory"}`,
		"engine.disk_hits":     `zkrownn_keycache_hits_total{tier="disk"}`,
		"engine.solves":        "zkrownn_solve_seconds_count",
		"engine.proves":        "zkrownn_proves_total",
		"engine.stream_proves": "zkrownn_stream_proves_total",
		"engine.spill_proves":  "zkrownn_spill_proves_total",
		"engine.verifies":      "zkrownn_verifies_total",
		"engine.aggregates":    "zkrownn_aggregates_total",
		"engine.setup_ms":      "zkrownn_setup_seconds_sum",
		"engine.solve_ms":      "zkrownn_solve_seconds_sum",
		"engine.prove_ms":      "zkrownn_prove_seconds_sum",
		"engine.verify_ms":     "zkrownn_verify_seconds_sum",
		"engine.aggregate_ms":  "zkrownn_aggregate_seconds_sum",

		"service.circuits_compiled":       "zkrownn_circuits_compiled_total",
		"service.jobs_submitted":          "zkrownn_jobs_submitted_total",
		"service.jobs_rejected":           "zkrownn_jobs_rejected_total",
		"service.jobs_completed":          "zkrownn_jobs_completed_total",
		"service.jobs_failed":             "zkrownn_jobs_failed_total",
		"service.queue_depth":             "zkrownn_queue_depth",
		"service.verify_requests":         "zkrownn_verify_requests_total",
		"service.verify_batch_calls":      "zkrownn_verify_batch_calls_total",
		"service.verify_batched_requests": "zkrownn_verify_batched_requests_total",
		"service.verify_max_batch":        "zkrownn_verify_max_batch",
		"service.verify_fallbacks":        "zkrownn_verify_fallbacks_total",
		"service.verify_decode_fallbacks": "zkrownn_verify_decode_fallback_total",
		"service.aggregate_requests":      "zkrownn_aggregate_requests_total",
		"service.aggregate_artifacts":     "zkrownn_aggregate_artifacts_total",
		"service.aggregate_fallbacks":     "zkrownn_aggregate_fallbacks_total",
		"service.queue_wait_seconds":      "zkrownn_queue_wait_seconds",
		"service.verify_batch_size":       "zkrownn_verify_batch_size",
	}
	statsNotSeries = map[string]bool{"service.models": true, "service.queue_capacity": true}
)

// statsFields flattens one half of a StatsResponse into JSON name →
// value (a uint64, int, float64 or *HistogramWire).
func statsFields(prefix string, half any) map[string]any {
	out := map[string]any{}
	v := reflect.ValueOf(half)
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		out[prefix+"."+name] = v.Field(i).Interface()
	}
	return out
}

func allStatsFields(st StatsResponse) map[string]any {
	out := statsFields("engine", st.Engine)
	for k, v := range statsFields("service", st.Service) {
		out[k] = v
	}
	return out
}

// scrape reads a server's /metrics into series (name with labels) →
// value.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("unparseable /metrics line %q", line)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStatsAndMetricsAgree: /v1/stats, /metrics and Engine.Stats() are
// three renderings of the registries one server and its engine own. On a
// server that has registered, proved, verified (a good and a tampered
// proof) and aggregated, every numeric /v1/stats field equals the series
// it is a view of on the same server's /metrics; a second, idle server
// in the same process reads zero throughout. (With the series on the
// process-wide registry beside per-instance atomics, the idle server's
// /metrics and its /v1/stats histograms showed the busy server's work.)
func TestStatsAndMetricsAgree(t *testing.T) {
	srvA, a := newTestServer(t, Options{})
	_, b := newTestServer(t, Options{})

	reg, js := proveOne(t, a.URL)
	good := VerifyRequest{Proof: js.Proof, PublicInputs: js.PublicInputs}
	for _, req := range []VerifyRequest{good, {Proof: tampered(js.Proof), PublicInputs: js.PublicInputs}} {
		if resp, data := postJSON(t, verifyURL(a.URL, reg.ModelID), req); resp.StatusCode != http.StatusOK {
			t.Fatalf("verify: status %d: %s", resp.StatusCode, data)
		}
	}
	if resp, data := postJSON(t, a.URL+"/v1/aggregate", AggregateRequest{
		ModelID:      reg.ModelID,
		Proofs:       []*groth16.Proof{js.Proof, js.Proof},
		PublicInputs: []groth16.PublicInputs{js.PublicInputs, js.PublicInputs},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: status %d: %s", resp.StatusCode, data)
	}

	var stA, stB StatsResponse
	getJSON(t, a.URL+"/v1/stats", &stA)
	getJSON(t, b.URL+"/v1/stats", &stB)
	metricsA, metricsB := scrape(t, a.URL), scrape(t, b.URL)
	fieldsA := allStatsFields(stA)

	// The table covers the two stats structs exactly.
	for name := range fieldsA {
		if _, ok := statsSeries[name]; !ok && !statsNotSeries[name] {
			t.Errorf("/v1/stats field %s has no /metrics series in the table: register one, or list it as state", name)
		}
	}
	for name := range statsSeries {
		if _, ok := fieldsA[name]; !ok {
			t.Errorf("table names %s, which is not a /v1/stats field", name)
		}
	}

	// (i) A's /v1/stats equals A's own /metrics, field by field.
	series := func(name string) float64 {
		v, ok := metricsA[name]
		if !ok {
			t.Errorf("/metrics has no series %s", name)
		}
		return v
	}
	for name, s := range statsSeries {
		exact := func(want float64) {
			if got := series(s); got != want {
				t.Errorf("%s = %v, %s = %v", name, want, s, got)
			}
		}
		switch v := fieldsA[name].(type) {
		case uint64:
			exact(float64(v))
		case int:
			exact(float64(v))
		case float64: // milliseconds, truncated to the microsecond
			if got := series(s) * 1e3; math.Abs(got-v) > 0.0011 {
				t.Errorf("%s = %v ms, %s = %v ms", name, v, s, got)
			}
		case *HistogramWire:
			if v == nil {
				t.Errorf("%s missing from /v1/stats", name)
				continue
			}
			if c, sum := series(s+"_count"), series(s+"_sum"); c != float64(v.Count) || sum != v.Sum {
				t.Errorf("%s = count %d sum %v, %s = count %v sum %v", name, v.Count, v.Sum, s, c, sum)
			}
			cum := uint64(0)
			for _, bk := range v.Buckets {
				cum += bk.Count
				le := strconv.FormatFloat(bk.LE, 'g', -1, 64)
				if got := series(s + `_bucket{le="` + le + `"}`); got != float64(cum) {
					t.Errorf("%s: %d observations ≤ %s, %s_bucket = %v", name, cum, le, s, got)
				}
			}
		default:
			t.Errorf("%s has type %T, which this test cannot compare", name, v)
		}
	}
	// The flow above must have moved the numbers it is comparing.
	if e, s := stA.Engine, stA.Service; e.Setups != 1 || e.Proves != 1 || e.Verifies != 4 || e.Aggregates != 1 ||
		s.CircuitsCompiled != 1 || s.JobsCompleted != 1 || s.VerifyRequests != 4 || s.VerifyMaxBatch != 2 ||
		s.AggregateArtifacts != 1 || s.QueueWaitSeconds.Count != 1 || s.VerifyBatchSize.Count != 3 {
		t.Errorf("busy server's stats: %+v %+v", e, s)
	}

	// (ii) B did nothing, and says so in both documents.
	for name, v := range allStatsFields(stB) {
		if statsNotSeries[name] {
			continue
		}
		if h, ok := v.(*HistogramWire); ok {
			if h == nil || h.Count != 0 || h.Sum != 0 {
				t.Errorf("idle server: %s = %+v", name, h)
			}
		} else if !reflect.ValueOf(v).IsZero() {
			t.Errorf("idle server: %s = %v", name, v)
		}
	}
	own := 0
	for name, v := range metricsB {
		switch {
		case strings.HasPrefix(name, "zkrownn_http_requests_total"): // this test's reads
		case strings.HasPrefix(name, "zkrownn_csr_"), strings.HasPrefix(name, "zkrownn_witness_spill_"): // process-wide
		case !strings.HasPrefix(name, "zkrownn_"):
			t.Errorf("idle server: unexpected series %s", name)
		case v != 0:
			t.Errorf("idle server: %s = %v", name, v)
		default:
			own++
		}
	}
	if own == 0 || len(metricsB) != len(metricsA) {
		t.Errorf("idle server serves %d series (%d its own), busy server %d", len(metricsB), own, len(metricsA))
	}

	// (iii) Engine.Stats() is the engine half.
	ms := func(d interface{ Microseconds() int64 }) float64 { return float64(d.Microseconds()) / 1e3 }
	es := srvA.Engine().Stats()
	if want := (EngineStatsWire{
		Setups: es.Setups, MemHits: es.MemHits, DiskHits: es.DiskHits, Solves: es.Solves,
		Proves: es.Proves, StreamProves: es.StreamProves, SpillProves: es.SpillProves,
		Verifies: es.Verifies, Aggregates: es.Aggregates,
		SetupMS: ms(es.SetupTime), SolveMS: ms(es.SolveTime), ProveMS: ms(es.ProveTime),
		VerifyMS: ms(es.VerifyTime), AggregateMS: ms(es.AggregateTime),
	}); stA.Engine != want {
		t.Errorf("Engine.Stats() = %+v, /v1/stats engine half = %+v", want, stA.Engine)
	}
}

// TestRequestID: a well-formed X-Request-Id supplied by the caller names
// the request everywhere the server speaks of it — response header, error
// body, the job it submitted, the log records — and anything else
// (absent, over-long, or carrying bytes outside [A-Za-z0-9._-]) is
// replaced by a minted ID, never echoed.
func TestRequestID(t *testing.T) {
	var logs lockedBuffer
	srv, ts := newTestServer(t, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	reg := register(t, ts.URL, 4)

	do := func(method, url, id string, body any) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(mustJSON(t, body))
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
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

	// Error body and header.
	const id = "dispute-42.retry_1-A"
	resp, data := do(http.MethodGet, ts.URL+"/v1/jobs/nope", id, nil)
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Request-Id") != id || er.RequestID != id || er.Error == "" {
		t.Fatalf("404 with a supplied ID: status %d, header %q, body %s", resp.StatusCode, resp.Header.Get("X-Request-Id"), data)
	}

	// The job a request submits, and its log records.
	const jobReq = "prove-req-7"
	resp, data = do(http.MethodPost, ts.URL+"/v1/models/"+reg.ModelID+"/prove", jobReq, ProveRequest{})
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Request-Id"); got != jobReq {
		t.Fatalf("prove response header %q, want %q", got, jobReq)
	}
	if js := waitJob(t, ts.URL, acc.JobID); js.Status != JobDone || js.RequestID != jobReq {
		t.Fatalf("job status %s, request_id %q, want %q", js.Status, js.RequestID, jobReq)
	}
	for _, msg := range []string{"http", `"job submitted"`, `"job done"`} {
		found := false
		for _, line := range strings.Split(logs.String(), "\n") {
			found = found || strings.Contains(line, "msg="+msg) && strings.Contains(line, "req_id="+jobReq)
		}
		if !found {
			t.Errorf("no %s log record carries req_id=%s:\n%s", msg, jobReq, logs.String())
		}
	}
	// The job done record says which tier the prove ran in and why.
	if want := `residency=resident residency_reason="no memory budget set"`; !strings.Contains(logs.String(), want) {
		t.Errorf("job done record lacks %s:\n%s", want, logs.String())
	}

	// None supplied: minted, returned, distinct per request.
	r1, _ := do(http.MethodGet, ts.URL+"/healthz", "", nil)
	r2, data := do(http.MethodGet, ts.URL+"/v1/jobs/nope", "", nil)
	m1, m2 := r1.Header.Get("X-Request-Id"), r2.Header.Get("X-Request-Id")
	if !validRequestID(m1) || !validRequestID(m2) || m1 == m2 {
		t.Fatalf("minted IDs %q and %q, want two distinct well-formed ones", m1, m2)
	}
	if err := json.Unmarshal(data, &er); err != nil || er.RequestID != m2 {
		t.Fatalf("404 body %s, want request_id %q", data, m2)
	}

	// Unacceptable IDs are replaced, not echoed. net/http would refuse to
	// send or to accept some of these, so hand them to the handler itself.
	direct := func(path, id string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header["X-Request-Id"] = []string{id}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	for _, bad := range []string{
		strings.Repeat("x", 65), "two words", "semi;colon", "new\nline", "nul\x00", "bell\a", "ünï", `quo"te`, "a/b",
	} {
		rec := direct("/v1/jobs/nope", bad)
		got := rec.Header().Get("X-Request-Id")
		if got == bad || !validRequestID(got) || bytes.Contains(rec.Body.Bytes(), []byte(bad)) {
			t.Errorf("X-Request-Id %q: header %q, body %s", bad, got, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.RequestID != got {
			t.Errorf("X-Request-Id %q: body %s, want request_id %q", bad, rec.Body.Bytes(), got)
		}
	}
	if longest := strings.Repeat("x", 64); direct("/healthz", longest).Header().Get("X-Request-Id") != longest {
		t.Error("a 64-byte ID was not accepted")
	}

	// A closed server still names the request it turns away.
	srv.Close()
	rec := direct("/healthz", id)
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusServiceUnavailable || er.RequestID != id {
		t.Fatalf("closed server: %d %s", rec.Code, rec.Body.Bytes())
	}
}
