package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zkrownn/internal/core"
	"zkrownn/internal/groth16"
)

// registerBundle registers the shared test fixture with bundle_slots
// claim slots.
func registerBundle(t *testing.T, baseURL string, maxErrors, slots int) RegisterResponse {
	t.Helper()
	modelJSON, keyJSON := testFixture(t)
	resp, data := postJSON(t, baseURL+"/v1/models", RegisterRequest{
		Name:        "bundle-mlp",
		Model:       modelJSON,
		Key:         keyJSON,
		MaxErrors:   maxErrors,
		BundleSlots: slots,
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

// TestBundleProveEndToEnd is the acceptance path: one proof carrying
// K=4 suspect-model claims through register → bundle prove → verify,
// with the circuit compiled exactly once for the whole bundle.
func TestBundleProveEndToEnd(t *testing.T) {
	const slots = 4
	_, ts := newTestServer(t, Options{})

	reg := registerBundle(t, ts.URL, 4, slots)
	if reg.BundleSlots != slots {
		t.Fatalf("registered bundle_slots %d, want %d", reg.BundleSlots, slots)
	}
	// K weight slots + K claims on the wire.
	if reg.PublicInputs <= slots {
		t.Fatalf("batched circuit has %d public inputs, expected slot weights + %d claims", reg.PublicInputs, slots)
	}

	// Bundle: three distinct same-architecture suspects + one null slot
	// (registered model).
	var suspects []json.RawMessage
	for seed := int64(2); seed <= 4; seed++ {
		modelJSON, _ := testFixtureSeed(t, seed)
		suspects = append(suspects, modelJSON)
	}
	suspects = append(suspects, json.RawMessage("null"))

	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{
		SuspectModels: suspects,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bundle prove: status %d: %s", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, ts.URL, acc.JobID)
	if js.Status != JobDone {
		t.Fatalf("bundle job failed: %s", js.Error)
	}
	if js.Proof == nil {
		t.Fatal("bundle job has no proof")
	}
	if len(js.Claims) != slots {
		t.Fatalf("bundle job reports %d claims, want %d", len(js.Claims), slots)
	}
	// maxErrors = signature width → every suspect's claim is 1.
	for s, c := range js.Claims {
		if !c {
			t.Fatalf("slot %d claim 0 under full BER tolerance", s)
		}
	}
	if !js.SetupCached {
		t.Fatal("bundle job re-ran trusted setup despite registration warm-up")
	}

	// ONE proof verifies all K claims over the wire.
	resp, data = postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
		Proof:        js.Proof,
		PublicInputs: js.PublicInputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid || !vr.Claim {
		t.Fatalf("bundle proof rejected: %+v", vr)
	}
	if len(vr.Claims) != slots {
		t.Fatalf("verify reports %d claims, want %d", len(vr.Claims), slots)
	}
	for s, c := range vr.Claims {
		if !c {
			t.Fatalf("verify slot %d claim 0", s)
		}
	}

	// The whole bundle cost exactly one circuit compilation (at
	// registration), one setup, and one prove.
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Service.CircuitsCompiled != 1 {
		t.Fatalf("circuits_compiled = %d across the bundle, want 1", stats.Service.CircuitsCompiled)
	}
	if stats.Engine.Setups != 1 {
		t.Fatalf("engine setups = %d, want 1", stats.Engine.Setups)
	}
	if stats.Engine.Proves != 1 {
		t.Fatalf("engine proves = %d for a %d-claim bundle, want 1", stats.Engine.Proves, slots)
	}
}

// TestBundleRequestValidation covers the wire-level rejections around
// bundle registration and submission.
func TestBundleRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	modelJSON, keyJSON := testFixture(t)

	// bundle_slots out of range.
	resp, _ := postJSON(t, ts.URL+"/v1/models", RegisterRequest{
		Model: modelJSON, Key: keyJSON, MaxErrors: 4, BundleSlots: -2,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative bundle_slots: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models", RegisterRequest{
		Model: modelJSON, Key: keyJSON, MaxErrors: 4, BundleSlots: core.MaxSlots + 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized bundle_slots: status %d, want 400", resp.StatusCode)
	}

	// Committed circuits cannot carry bundle slots.
	resp, data := postJSON(t, ts.URL+"/v1/models", RegisterRequest{
		Model: modelJSON, Key: keyJSON, MaxErrors: 4, Committed: true, BundleSlots: 2,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("committed bundle: status %d (%s), want 400", resp.StatusCode, data)
	}

	reg := registerBundle(t, ts.URL, 4, 2)
	proveURL := ts.URL + "/v1/models/" + reg.ModelID + "/prove"
	suspect, _ := testFixtureSeed(t, 2)

	// Bundle length must match the registered slot count.
	resp, data = postJSON(t, proveURL, ProveRequest{
		SuspectModels: []json.RawMessage{suspect},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short bundle: status %d (%s), want 400", resp.StatusCode, data)
	}
	// The legacy single-suspect field cannot drive a multi-slot circuit.
	resp, data = postJSON(t, proveURL, ProveRequest{SuspectModel: suspect})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single suspect on 2-slot model: status %d (%s), want 400", resp.StatusCode, data)
	}
	// Both suspect fields at once.
	resp, data = postJSON(t, proveURL, ProveRequest{
		SuspectModel:  suspect,
		SuspectModels: []json.RawMessage{suspect, suspect},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both suspect fields: status %d (%s), want 400", resp.StatusCode, data)
	}
	// Malformed model inside one slot.
	resp, data = postJSON(t, proveURL, ProveRequest{
		SuspectModels: []json.RawMessage{suspect, json.RawMessage(`{"nope":1}`)},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage slot model: status %d (%s), want 400", resp.StatusCode, data)
	}
	// A model whose declared shapes do not hold is a bad request, in a
	// registration (a negative size would size a slice) and in a slot
	// (a zero stride would divide by zero).
	resp, data = postJSON(t, ts.URL+"/v1/models", RegisterRequest{
		Model: json.RawMessage(`{"format":1,"layers":[{"kind":"relu","size":-5}]}`), Key: keyJSON,
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "bad model") {
		t.Fatalf("negative layer size: status %d (%s), want 400", resp.StatusCode, data)
	}
	resp, data = postJSON(t, proveURL, ProveRequest{SuspectModels: []json.RawMessage{
		suspect, json.RawMessage(`{"format":1,"layers":[{"kind":"maxpool","in_c":1,"in_h":4,"in_w":4,"k":2,"s":0}]}`),
	}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "bad suspect model in slot 1") {
		t.Fatalf("zero-stride slot model: status %d (%s), want 400", resp.StatusCode, data)
	}
	// An all-null bundle degenerates to proving the registered model.
	resp, data = postJSON(t, proveURL, ProveRequest{
		SuspectModels: []json.RawMessage{json.RawMessage("null"), json.RawMessage("null")},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("all-null bundle: status %d (%s), want 202", resp.StatusCode, data)
	}
	var acc ProveAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if js := waitJob(t, ts.URL, acc.JobID); js.Status != JobDone || len(js.Claims) != 2 {
		t.Fatalf("all-null bundle job: status %s claims %v", js.Status, js.Claims)
	}
}

// TestBundleClaimForgeryRejected: rewriting claim bits in a bundle
// instance must break Groth16 verification — per-slot verdicts are
// constrained, not asserted.
func TestBundleClaimForgeryRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reg := registerBundle(t, ts.URL, 4, 2)
	suspect, _ := testFixtureSeed(t, 2)
	resp, data := postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/prove", ProveRequest{
		SuspectModels: []json.RawMessage{json.RawMessage("null"), suspect},
	})
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

	// Flip the last claim bit (1 → 0 here; the direction is irrelevant —
	// any substitution must invalidate the proof).
	forged := append(groth16.PublicInputs(nil), js.PublicInputs...)
	forged[len(forged)-1].SetUint64(0)
	resp, data = postJSON(t, ts.URL+"/v1/models/"+reg.ModelID+"/verify", VerifyRequest{
		Proof:        js.Proof,
		PublicInputs: forged,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: %d %s", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid {
		t.Fatal("forged claim bit accepted")
	}
}

// TestVerifyUnderWrongModelRejected: a proof for circuit A checked
// against circuit B's verifying key (same architecture, different BER
// tolerance → different circuit) must come back valid=false.
func TestVerifyUnderWrongModelRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	regA := register(t, ts.URL, 4)
	regB := register(t, ts.URL, 3) // different maxErrors → different circuit + VK
	if regA.ModelID == regB.ModelID {
		t.Fatal("fixture circuits unexpectedly share a digest")
	}
	resp, data := postJSON(t, ts.URL+"/v1/models/"+regA.ModelID+"/prove", ProveRequest{})
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
	resp, data = postJSON(t, ts.URL+"/v1/models/"+regB.ModelID+"/verify", VerifyRequest{
		Proof:        js.Proof,
		PublicInputs: js.PublicInputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross-model verify: %d %s", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid {
		t.Fatal("proof accepted under the wrong model's verifying key")
	}
}

// TestBundleSlotsPersistAcrossRestart: the slot count is part of the
// persisted record metadata, so a restarted registry still decodes
// per-slot claims for verification-only records.
func TestBundleSlotsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	srv1, err := New(Options{RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	reg := registerBundle(t, ts1.URL, 4, 3)
	ts1.Close()
	srv1.Close()

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
	if info.BundleSlots != 3 {
		t.Fatalf("restored bundle_slots = %d, want 3", info.BundleSlots)
	}
	if info.CanProve {
		t.Fatal("restored record claims prove material")
	}
}
