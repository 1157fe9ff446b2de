package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
)

// proveOne registers the fixture model and runs a single prove job to
// completion, returning the registration and the finished job (proof +
// public inputs).
func proveOne(t *testing.T, baseURL string) (RegisterResponse, JobStatus) {
	t.Helper()
	reg := register(t, baseURL, 4)
	return reg, proveModel(t, baseURL, reg.ModelID)
}

// proveModel runs one prove job for a registered model to completion.
func proveModel(t *testing.T, baseURL, modelID string) JobStatus {
	t.Helper()
	resp, data := postJSON(t, baseURL+"/v1/models/"+modelID+"/prove", ProveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prove submit: status %d: %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, baseURL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("prove job failed: %s", js.Error)
	}
	return js
}

func TestAggregateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg, js := proveOne(t, ts.URL)

	const n = 3
	proofs := make([]*groth16.Proof, n)
	pubs := make([]groth16.PublicInputs, n)
	for i := range proofs {
		proofs[i] = js.Proof
		pubs[i] = js.PublicInputs
	}

	resp, data := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		ModelID: reg.ModelID, Proofs: proofs, PublicInputs: pubs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: status %d: %s", resp.StatusCode, data)
	}
	var ar AggregateResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Valid || !ar.Claim || ar.Error != "" {
		t.Fatalf("aggregate rejected honest set: %+v", ar)
	}
	if ar.Count != n || ar.BatchSize != n || len(ar.Claims) != n {
		t.Fatalf("aggregate accounting wrong: count=%d batch=%d claims=%d",
			ar.Count, ar.BatchSize, len(ar.Claims))
	}
	if ar.Aggregate == nil || ar.SRSKey == nil {
		t.Fatal("no artifact or SRS key on a valid aggregation")
	}

	// Client-side audit: the returned artifact must verify against the
	// registered VK and the returned SRS key alone — no trust in the
	// service's verdict required.
	publics := make([][]fr.Element, n)
	for i := range pubs {
		publics[i] = pubs[i]
	}
	if err := groth16.VerifyAggregate(ar.SRSKey, reg.VK, ar.Aggregate, publics); err != nil {
		t.Fatalf("returned artifact does not verify client-side: %v", err)
	}

	// The artifact survives a JSON round trip (what a client stores).
	blob, err := json.Marshal(ar.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	var back groth16.AggregateProof
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := groth16.VerifyAggregate(ar.SRSKey, reg.VK, &back, publics); err != nil {
		t.Fatalf("re-decoded artifact does not verify: %v", err)
	}

	// One tampered member fails the set: no artifact, failure attributed
	// to the bad index.
	bad := *js.Proof
	bad.Ar, bad.Krs = bad.Krs, bad.Ar
	resp, data = postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		ModelID:      reg.ModelID,
		Proofs:       []*groth16.Proof{js.Proof, &bad, js.Proof},
		PublicInputs: pubs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate(tampered): status %d: %s", resp.StatusCode, data)
	}
	var ar2 AggregateResponse
	if err := json.Unmarshal(data, &ar2); err != nil {
		t.Fatal(err)
	}
	if ar2.Valid || ar2.Aggregate != nil {
		t.Fatalf("tampered set produced an artifact: %+v", ar2)
	}
	if !strings.Contains(ar2.Error, "proof 1") {
		t.Fatalf("failure not attributed to the tampered member: %q", ar2.Error)
	}

	// Malformed requests.
	if resp, _ := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		ModelID: "nope", Proofs: proofs, PublicInputs: pubs,
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		ModelID: reg.ModelID,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty set: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		ModelID: reg.ModelID, Proofs: proofs, PublicInputs: pubs[:1],
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("length mismatch: status %d", resp.StatusCode)
	}

	// Stats corroborate: two accepted requests, one artifact, one
	// per-proof fallback; the engine folded exactly one set.
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.AggregateRequests != 2 ||
		stats.Service.AggregateArtifacts != 1 ||
		stats.Service.AggregateFallbacks != 1 {
		t.Fatalf("aggregate stats wrong: %+v", stats.Service)
	}
	if stats.Engine.Aggregates != 1 || stats.Engine.AggregateMS <= 0 {
		t.Fatalf("engine aggregate stats wrong: %+v", stats.Engine)
	}

	// The obs registry exports the aggregate series on /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"zkrownn_aggregate_requests_total",
		"zkrownn_aggregate_request_proofs",
		"zkrownn_aggregates_total",
		"zkrownn_aggregate_seconds",
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}
