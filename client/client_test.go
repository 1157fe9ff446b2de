package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"zkrownn"
)

// waitOn runs WaitForProof against a job endpoint that reports
// "running" until jobTime has passed since the first poll, and returns
// how long after that instant the call came back and how many polls it
// took.
func waitOn(t *testing.T, jobTime time.Duration) (late time.Duration, polls int64) {
	t.Helper()
	var doneAt atomic.Pointer[time.Time]
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		at := time.Now().Add(jobTime)
		doneAt.CompareAndSwap(nil, &at)
		status := JobRunning
		if !time.Now().Before(*doneAt.Load()) {
			status = JobDone
		}
		json.NewEncoder(w).Encode(JobStatus{JobID: "job-1", Status: status})
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	js, err := c.WaitForProof(ctx, "job-1")
	if err != nil || js.Status != JobDone {
		t.Fatalf("WaitForProof: %+v, %v", js, err)
	}
	return time.Since(*doneAt.Load()), n.Load()
}

// TestWaitForProofPollsProportionally: the poll interval follows the
// time already waited, so a finished job is seen within 15 % of its own
// duration and the poll count grows with the logarithm of that duration
// — a fixed interval gives neither.
func TestWaitForProofPollsProportionally(t *testing.T) {
	// About ten polls at the 1 ms floor, then intervals growing 10 % a
	// poll; a slow machine only polls less often.
	maxPolls := func(d time.Duration) int64 {
		return 12 + int64(math.Log(float64(d)/float64(10*time.Millisecond))/math.Log(1.1))
	}
	for _, jobTime := range []time.Duration{80 * time.Millisecond, 640 * time.Millisecond} {
		// A descheduled test process can add any delay to one wake-up:
		// the bound has to hold on one of three tries.
		var late time.Duration
		var polls int64
		for try := 0; try < 3; try++ {
			late, polls = waitOn(t, jobTime)
			if late <= jobTime*15/100 {
				break
			}
		}
		if late > jobTime*15/100 {
			t.Errorf("%v job seen done %v late, want within 15 %%", jobTime, late)
		}
		if polls > maxPolls(jobTime) {
			t.Errorf("%v job took %d polls, want at most %d", jobTime, polls, maxPolls(jobTime))
		}
		t.Logf("%v job: seen %v late after %d polls (bound %d)", jobTime, late, polls, maxPolls(jobTime))
	}
}

// TestRequestBodiesUnchanged: the client marshals the server's request
// types (service.RegisterRequest and friends); the bytes it puts on the
// wire are the ones its own hand-written request structs — kept here as
// the reference — produced before it did.
func TestRequestBodiesUnchanged(t *testing.T) {
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(3))
	ds, err := zkrownn.SyntheticMNIST(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	model := zkrownn.NewMLP(ds.Dim, []int{4}, ds.Classes, rng)
	suspect := zkrownn.NewMLP(ds.Dim, []int{4}, ds.Classes, rng)
	key, err := zkrownn.GenerateKey(model, ds, zkrownn.KeyOptions{Bits: 4, Triggers: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	raw := func(m *zkrownn.Model) json.RawMessage {
		var buf bytes.Buffer
		if err := zkrownn.SaveModel(m, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	keyJSON, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	proof := new(zkrownn.Proof)
	public := make(zkrownn.Instance, 3)
	public[1].SetUint64(7)
	wide := make(zkrownn.Instance, 4129)
	for i := range wide {
		wide[i].SetUint64(rng.Uint64())
		wide[i].Square(&wide[i])
	}

	type registerBody struct {
		Name        string          `json:"name,omitempty"`
		Model       json.RawMessage `json:"model"`
		Key         json.RawMessage `json:"key"`
		FracBits    int             `json:"frac_bits,omitempty"`
		MaxErrors   int             `json:"max_errors,omitempty"`
		Committed   bool            `json:"committed,omitempty"`
		BundleSlots int             `json:"bundle_slots,omitempty"`
	}
	type proveSingle struct {
		SuspectModel json.RawMessage `json:"suspect_model,omitempty"`
	}
	for _, tc := range []struct {
		name string
		call func() error
		want any
	}{
		{"RegisterModel", func() error {
			_, err := c.RegisterModel(ctx, model, key, RegisterOptions{Name: "m", MaxErrors: 4, BundleSlots: 2})
			return err
		}, registerBody{"m", raw(model), keyJSON, 0, 4, false, 2}},
		{"RegisterModel/committed", func() error {
			_, err := c.RegisterModel(ctx, model, key, RegisterOptions{FracBits: 12, Committed: true})
			return err
		}, registerBody{"", raw(model), keyJSON, 12, 0, true, 0}},
		{"SubmitProve/registered", func() error { _, err := c.SubmitProve(ctx, "id", nil); return err },
			proveSingle{}},
		{"SubmitProve/suspect", func() error { _, err := c.SubmitProve(ctx, "id", suspect); return err },
			proveSingle{raw(suspect)}},
		{"SubmitProveBundle", func() error {
			_, err := c.SubmitProveBundle(ctx, "id", []*zkrownn.Model{suspect, nil})
			return err
		}, struct {
			SuspectModels []json.RawMessage `json:"suspect_models,omitempty"`
		}{[]json.RawMessage{raw(suspect), json.RawMessage("null")}}},
		{"Verify", func() error { _, err := c.Verify(ctx, "id", proof, public); return err },
			struct {
				Proof        *zkrownn.Proof   `json:"proof"`
				PublicInputs zkrownn.Instance `json:"public_inputs"`
			}{proof, public}},
		// The request client.Verify writes itself (VerifyRequest.AppendJSON,
		// not encoding/json), at the benchmark's public-instance size and
		// with the one member that can be null.
		{"Verify/4129 inputs", func() error { _, err := c.Verify(ctx, "id", proof, wide); return err },
			struct {
				Proof        *zkrownn.Proof   `json:"proof"`
				PublicInputs zkrownn.Instance `json:"public_inputs"`
			}{proof, wide}},
		{"Verify/no proof", func() error { _, err := c.Verify(ctx, "id", nil, nil); return err },
			struct {
				Proof        *zkrownn.Proof   `json:"proof"`
				PublicInputs zkrownn.Instance `json:"public_inputs"`
			}{}},
		{"Aggregate", func() error {
			_, err := c.Aggregate(ctx, "id", []*zkrownn.Proof{proof, proof}, []zkrownn.Instance{public, public})
			return err
		}, struct {
			ModelID      string             `json:"model_id"`
			Proofs       []*zkrownn.Proof   `json:"proofs"`
			PublicInputs []zkrownn.Instance `json:"public_inputs"`
		}{"id", []*zkrownn.Proof{proof, proof}, []zkrownn.Instance{public, public}}},
	} {
		got = nil
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: request body changed:\n got %.300s\nwant %.300s", tc.name, got, want)
		}
	}
}

// TestAPIErrorCarriesRequestID: the server's error body names the
// request; the client hands that ID to its caller.
func TestAPIErrorCarriesRequestID(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"unknown job","request_id":"req-9"}`))
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Job(context.Background(), "nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Message != "unknown job" || apiErr.RequestID != "req-9" {
		t.Fatalf("Job on a 404: %#v", err)
	}
}
