// Package client is the Go client for the ZKROWNN proof service
// (cmd/zkrownn-server): programmatic registration of ownership
// circuits, async proof jobs, and over-the-wire verification.
//
// A model owner registers once, then proves on demand:
//
//	c, _ := client.New("http://localhost:8080")
//	reg, _ := c.RegisterModel(ctx, model, key, client.RegisterOptions{})
//	ticket, _ := c.SubmitProve(ctx, reg.ModelID, nil)
//	job, _ := c.WaitForProof(ctx, ticket.JobID)
//
// Any third party holding only the model ID verifies remotely:
//
//	verdict, _ := c.Verify(ctx, reg.ModelID, job.Proof, job.PublicInputs)
//
// The wire types are the server's own (internal/service), under aliases:
// each JSON message has one declaration, so the two cannot drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"zkrownn"
	"zkrownn/internal/service"
)

// ErrQueueFull is wrapped by SubmitProve when the server sheds load
// (HTTP 429); callers should back off and retry.
var ErrQueueFull = errors.New("client: prove queue full")

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int
	Message string
	// RequestID is the server's correlation ID for the failed request
	// (its X-Request-Id), the handle for finding it in the server's logs.
	RequestID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("proof service: %s (HTTP %d)", e.Message, e.Status)
}

// Client talks to one proof service.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the service at baseURL
// (e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("client: empty base URL")
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// RegisterOptions mirrors the circuit parameters of registration.
type RegisterOptions struct {
	// Name is an optional operator-facing label.
	Name string
	// FracBits selects the fixed-point format (0 → server default, 16).
	FracBits int
	// MaxErrors is the BER tolerance θ·N.
	MaxErrors int
	// Committed selects the committed-model circuit variant.
	Committed bool
	// BundleSlots registers a batched extraction circuit with this many
	// suspect-model claim slots (0/1 → single). A K-slot registration
	// proves K ownership claims with one proof per SubmitProveBundle
	// job. Incompatible with Committed.
	BundleSlots int
}

// The service's JSON messages, as its handlers declare them.
type (
	// Registration reports a registered circuit.
	Registration = service.RegisterResponse
	// ModelInfo describes one registry entry.
	ModelInfo = service.ModelInfo
	// ModelDetail is a registry entry plus its verifying key.
	ModelDetail = service.ModelResponse
	// ProveTicket acknowledges a queued prove job.
	ProveTicket = service.ProveAccepted
	// JobStatus reports a prove job; Proof and PublicInputs are set once
	// Status is "done", and Claims holds the per-slot ownership verdicts
	// in slot order (one entry for single-slot registrations).
	JobStatus = service.JobStatus
	// VerifyResult reports an over-the-wire verification. Claim is the
	// conjunction of every slot's verdict; Claims lists them per slot for
	// bundle registrations.
	VerifyResult = service.VerifyResponse
	// AggregateResult reports a registry-scale aggregation. When Valid,
	// the artifact plus SRS key verify client-side against the model's VK
	// with zkrownn.VerifyAggregateOwnership — no trust in the service's
	// verdict required. An invalid member yields no artifact; Error names
	// the first offending proof index.
	AggregateResult = service.AggregateResponse
	// EngineStats is the engine half of /v1/stats.
	EngineStats = service.EngineStatsWire
	// ServiceStats is the prove-queue / verify-pool half of /v1/stats.
	ServiceStats = service.ServiceStats
	// Stats is the /v1/stats payload.
	Stats = service.StatsResponse
)

// Job states.
const (
	JobQueued  = service.JobQueued
	JobRunning = service.JobRunning
	JobDone    = service.JobDone
	JobFailed  = service.JobFailed
)

// Health pings /healthz.
func (c *Client) Health(ctx context.Context) error {
	var out service.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("client: unhealthy service: %q", out.Status)
	}
	return nil
}

// Stats fetches engine + service counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	out := new(Stats)
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RegisterModel registers an ownership circuit: the server compiles
// Algorithm 1 for the model + watermark key, runs (or reuses) trusted
// setup, and returns the digest-keyed model ID with the verifying key.
func (c *Client) RegisterModel(ctx context.Context, model *zkrownn.Model, key *zkrownn.WatermarkKey, opts RegisterOptions) (*Registration, error) {
	modelJSON, err := encodeModel(model)
	if err != nil {
		return nil, err
	}
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	req := service.RegisterRequest{
		Name: opts.Name, Model: modelJSON, Key: keyJSON,
		FracBits: opts.FracBits, MaxErrors: opts.MaxErrors,
		Committed: opts.Committed, BundleSlots: opts.BundleSlots,
	}
	out := new(Registration)
	if err := c.do(ctx, http.MethodPost, "/v1/models", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Models lists the registry.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out []ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Model fetches one registry entry with its verifying key.
func (c *Client) Model(ctx context.Context, modelID string) (*ModelDetail, error) {
	out := new(ModelDetail)
	if err := c.do(ctx, http.MethodGet, "/v1/models/"+modelID, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitProve queues an async ownership-proof job. suspect, when
// non-nil, is the model to prove against (it must share the registered
// architecture); nil proves the registered model. A load-shedding 429
// surfaces as an error wrapping ErrQueueFull.
func (c *Client) SubmitProve(ctx context.Context, modelID string, suspect *zkrownn.Model) (*ProveTicket, error) {
	var req service.ProveRequest
	if suspect != nil {
		m, err := encodeModel(suspect)
		if err != nil {
			return nil, err
		}
		req.SuspectModel = m
	}
	return c.submitProve(ctx, modelID, req)
}

// SubmitProveBundle queues one async proof covering every claim slot of
// a bundle registration: suspects[s] is proved in slot s (nil keeps the
// registered model there), and len(suspects) must equal the model's
// BundleSlots. The finished job carries ONE proof plus a per-slot
// verdict vector (JobStatus.Claims).
func (c *Client) SubmitProveBundle(ctx context.Context, modelID string, suspects []*zkrownn.Model) (*ProveTicket, error) {
	var req service.ProveRequest
	for _, suspect := range suspects {
		if suspect == nil {
			req.SuspectModels = append(req.SuspectModels, json.RawMessage("null"))
			continue
		}
		m, err := encodeModel(suspect)
		if err != nil {
			return nil, err
		}
		req.SuspectModels = append(req.SuspectModels, m)
	}
	return c.submitProve(ctx, modelID, req)
}

// submitProve posts one prove request, single-suspect or bundle.
func (c *Client) submitProve(ctx context.Context, modelID string, req service.ProveRequest) (*ProveTicket, error) {
	out := new(ProveTicket)
	err := c.do(ctx, http.MethodPost, "/v1/models/"+modelID+"/prove", req, out)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		return nil, fmt.Errorf("%w: %s", ErrQueueFull, apiErr.Message)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Job polls one prove job.
func (c *Client) Job(ctx context.Context, jobID string) (*JobStatus, error) {
	out := new(JobStatus)
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitForProof polls a job until it reaches a terminal state (or ctx
// expires). A failed job returns an error carrying the server's reason.
// The poll interval is a tenth of the time waited so far, kept between
// 1 ms and 250 ms: completion is seen within about 10 % of the job's own
// duration, at a cost of O(log duration) polls up to 2.5 s and four a
// second after that.
func (c *Client) WaitForProof(ctx context.Context, jobID string) (*JobStatus, error) {
	start := time.Now()
	for {
		js, err := c.Job(ctx, jobID)
		if err != nil {
			return nil, err
		}
		switch js.Status {
		case JobDone:
			return js, nil
		case JobFailed:
			return js, fmt.Errorf("client: job %s failed: %s", jobID, js.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(min(max(time.Since(start)/10, time.Millisecond), 250*time.Millisecond)):
		}
	}
}

// FetchProofBinary downloads the finished proof in the compact binary
// encoding (the 128-byte artifact a dispute transcript files).
func (c *Client) FetchProofBinary(ctx context.Context, jobID string) (*zkrownn.Proof, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/proof", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	proof := new(zkrownn.Proof)
	if _, err := proof.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("client: bad proof payload: %w", err)
	}
	return proof, nil
}

// Verify checks an ownership proof over the wire. On a loaded server,
// calls for one model that queue behind busy verifiers are checked in a
// single batched pairing product; VerifyResult.BatchSize reports the
// fold (1 on an idle server).
func (c *Client) Verify(ctx context.Context, modelID string, proof *zkrownn.Proof, public zkrownn.Instance) (*VerifyResult, error) {
	req := &service.VerifyRequest{Proof: proof, PublicInputs: public}
	out := new(VerifyResult)
	if err := c.do(ctx, http.MethodPost, "/v1/models/"+modelID+"/verify", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Aggregate folds N proofs for one model into a single O(log N)
// aggregation artifact server-side. All proofs must be under modelID's
// verifying key, with publics[i] the instance of proofs[i]. On success
// the result carries the artifact plus the SRS verifier key; audit it
// locally with zkrownn.VerifyAggregateOwnership against the model's VK.
func (c *Client) Aggregate(ctx context.Context, modelID string, proofs []*zkrownn.Proof, publics []zkrownn.Instance) (*AggregateResult, error) {
	req := service.AggregateRequest{ModelID: modelID, Proofs: proofs, PublicInputs: publics}
	out := new(AggregateResult)
	if err := c.do(ctx, http.MethodPost, "/v1/aggregate", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// --- plumbing ---

func encodeModel(m *zkrownn.Model) (json.RawMessage, error) {
	if m == nil {
		return nil, errors.New("client: nil model")
	}
	var buf bytes.Buffer
	if err := zkrownn.SaveModel(m, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		var b []byte
		var err error
		// A message that writes its own bytes (exactly json.Marshal's, by
		// its contract) is spared encoding/json's passes over them.
		if a, ok := in.(interface{ AppendJSON([]byte) []byte }); ok {
			b = a.AppendJSON(nil)
		} else {
			b, err = json.Marshal(in)
		}
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

func decodeAPIError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e service.ErrorResponse
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg, RequestID: e.RequestID}
}
