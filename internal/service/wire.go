package service

import (
	"bytes"
	"encoding/json"

	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/groth16"
)

// Wire DTOs of the proof-service JSON API. The Go client
// (zkrownn/client) sends and decodes these same types, under aliases.

// RegisterRequest registers one ownership circuit: the owner's model,
// their (private) watermark key, and the circuit parameters. The server
// quantizes the model, compiles Algorithm 1, runs (or reuses) trusted
// setup, and persists the verifying key under the circuit digest.
type RegisterRequest struct {
	// Name is an optional operator-facing label.
	Name string `json:"name,omitempty"`
	// Model is the nn.Network JSON encoding (zkrownn.SaveModel output).
	Model json.RawMessage `json:"model"`
	// Key is the watermark.Key JSON encoding.
	Key json.RawMessage `json:"key"`
	// FracBits selects the fixed-point format (default 16).
	FracBits int `json:"frac_bits,omitempty"`
	// MaxErrors is the BER tolerance θ·N (default 0: exact match).
	MaxErrors int `json:"max_errors,omitempty"`
	// Committed selects the committed-model circuit variant
	// (constant-size VK, weights bound by digest).
	Committed bool `json:"committed,omitempty"`
	// BundleSlots compiles a batched extraction circuit with this many
	// suspect-model slots sharing the watermark key (default 1). A
	// K-slot registration proves K ownership claims — against up to K
	// different same-architecture suspects — with ONE Groth16 proof per
	// bundle job. Mutually exclusive with Committed (committed circuits
	// bake the model into the constraints and cannot rebind slots).
	BundleSlots int `json:"bundle_slots,omitempty"`
}

// RegisterResponse reports the registered circuit and its verifying
// key envelope. The circuit digest names the watermark key, so a second
// key on the same model is a new registration with its own setup and
// VK, not an already_registered one.
type RegisterResponse struct {
	// ModelID is the circuit-digest-keyed registry ID.
	ModelID string `json:"model_id"`
	Name    string `json:"name,omitempty"`
	// AlreadyRegistered is true when the digest was present; the existing
	// verifying key is returned and the prove material is refreshed.
	AlreadyRegistered bool `json:"already_registered,omitempty"`
	// SetupCached is true when trusted setup was skipped (engine cache).
	SetupCached  bool `json:"setup_cached"`
	Constraints  int  `json:"constraints"`
	PublicInputs int  `json:"public_inputs"`
	Committed    bool `json:"committed,omitempty"`
	BundleSlots  int  `json:"bundle_slots,omitempty"`
	// FalseClaimBound is the chance that a model which never carried the
	// watermark passes this claim (core.Spec.FalseClaimBound): 1 when
	// max_errors reaches the signature length.
	FalseClaimBound float64               `json:"false_claim_bound"`
	VK              *groth16.VerifyingKey `json:"vk"`
}

// ModelInfo describes one registry entry.
type ModelInfo struct {
	ModelID   string `json:"model_id"`
	Name      string `json:"name,omitempty"`
	Committed bool   `json:"committed,omitempty"`
	// BundleSlots is the number of suspect-model claim slots the
	// registered circuit carries (1 unless registered with
	// bundle_slots > 1).
	BundleSlots  int    `json:"bundle_slots,omitempty"`
	FracBits     int    `json:"frac_bits"`
	MaxErrors    int    `json:"max_errors"`
	Constraints  int    `json:"constraints"`
	PublicInputs int    `json:"public_inputs"`
	CreatedAt    string `json:"created_at"`
	// CanProve is false for registry entries restored from disk after a
	// restart: the verifying key persists, the private prove material
	// (model + watermark key) does not and needs re-registration.
	CanProve bool `json:"can_prove"`
	// FalseClaimBound is as in RegisterResponse; absent on records
	// registered before it was reported.
	FalseClaimBound float64 `json:"false_claim_bound,omitempty"`
}

// ModelResponse is one registry entry plus its verifying key.
type ModelResponse struct {
	ModelInfo
	VK *groth16.VerifyingKey `json:"vk"`
}

// ProveRequest submits an async ownership-proof job for a registered
// circuit.
type ProveRequest struct {
	// SuspectModel optionally substitutes the model to prove against
	// (nn.Network JSON). It must share the registered architecture: the
	// job rebinds the suspect's weights onto the circuit compiled at
	// registration (no recompilation) and fails on any shape mismatch.
	// Committed circuits bind the registered model itself (ρ = H(weights)
	// is baked into the constraints), so a committed suspect must be
	// registered in its own right instead. When absent, the registered
	// model is proved.
	SuspectModel json.RawMessage `json:"suspect_model,omitempty"`
	// SuspectModels is the bundle form for multi-slot registrations: one
	// entry per claim slot (length must equal the model's bundle_slots),
	// a null entry keeping the registered model in that slot. The job
	// produces ONE proof carrying a verdict per slot (JobStatus.Claims).
	// Mutually exclusive with SuspectModel.
	SuspectModels []json.RawMessage `json:"suspect_models,omitempty"`
	// Trace requests per-phase span recording for this job. The finished
	// job then serves a Chrome trace-event JSON timeline at
	// GET /v1/jobs/{id}/trace (loadable in chrome://tracing or Perfetto).
	Trace bool `json:"trace,omitempty"`
}

// ProveAccepted acknowledges a queued prove job.
type ProveAccepted struct {
	JobID      string `json:"job_id"`
	ModelID    string `json:"model_id"`
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus reports a prove job. Proof and PublicInputs are set once
// Status is "done".
type JobStatus struct {
	JobID   string `json:"job_id"`
	ModelID string `json:"model_id"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	// SetupCached reports whether the job's trusted setup was served
	// from the engine's key cache (it should be, after registration).
	SetupCached bool    `json:"setup_cached,omitempty"`
	QueuedMS    float64 `json:"queued_ms,omitempty"`
	// SolveMS is the per-job witness generation time (solver-program
	// replay over the circuit compiled at registration — jobs never
	// recompile).
	SolveMS float64 `json:"solve_ms,omitempty"`
	ProveMS float64 `json:"prove_ms,omitempty"`
	// Residency is where the engine's plan proved this job: "resident"
	// or "out-of-core" (set once done).
	Residency string `json:"residency,omitempty"`
	// Claims holds the per-slot ownership verdicts decoded from the
	// instance (the trailing bundle_slots public inputs), in slot order.
	// A single-slot job reports one entry.
	Claims       []bool               `json:"claims,omitempty"`
	Proof        *groth16.Proof       `json:"proof,omitempty"`
	PublicInputs groth16.PublicInputs `json:"public_inputs,omitempty"`
	// HasTrace reports that the job was submitted with trace=true and its
	// timeline is available at GET /v1/jobs/{id}/trace once done.
	HasTrace bool `json:"has_trace,omitempty"`
	// RequestID is the correlation ID of the HTTP request that submitted
	// the job (its X-Request-Id, supplied or minted).
	RequestID string `json:"request_id,omitempty"`
}

// VerifyRequest checks one ownership proof against a registered
// circuit's verifying key.
type VerifyRequest struct {
	Proof        *groth16.Proof       `json:"proof"`
	PublicInputs groth16.PublicInputs `json:"public_inputs"`
}

// The canonical framing of a VerifyRequest: the bytes json.Marshal puts
// around its two fields. A public-instance request carries one decimal
// per weight, tens of kB, and an encoding/json pass over it costs a good
// share of the pairing check it asks for; AppendJSON writes these bytes
// directly and decodeCanonical reads them back without a scanner.
// TestVerifyRequestCanonicalBytes pins both to json.Marshal: a field
// added to the struct has to be added here, or that test fails.
const (
	verifyRequestOpen  = `{"proof":`
	verifyRequestMid   = `,"public_inputs":`
	verifyRequestClose = `}`
)

// AppendJSON appends exactly json.Marshal(req) to dst.
func (req *VerifyRequest) AppendJSON(dst []byte) []byte {
	dst = append(dst, verifyRequestOpen...)
	if req.Proof == nil {
		dst = append(dst, "null"...)
	} else {
		dst = req.Proof.AppendJSON(dst)
	}
	dst = append(dst, verifyRequestMid...)
	dst = req.PublicInputs.AppendJSON(dst)
	return append(dst, verifyRequestClose...)
}

// decodeCanonical decodes body into req when it is framed exactly as
// AppendJSON frames it and both members decode; it reports false
// otherwise, leaving req in an unspecified state, and the caller decodes
// the same bytes with encoding/json, which accepts every other spelling
// and words every error.
func (req *VerifyRequest) decodeCanonical(body []byte) bool {
	rest, ok := bytes.CutPrefix(body, []byte(verifyRequestOpen))
	if !ok {
		return false
	}
	// The proof envelope holds no nested object and base64 has no brace,
	// so the first '}' ends it (none at all leaves an empty proof, which
	// does not decode).
	end := bytes.IndexByte(rest, '}') + 1
	proof, rest := rest[:end], rest[end:]
	rest, ok = bytes.CutPrefix(rest, []byte(verifyRequestMid))
	if !ok {
		return false
	}
	public, ok := bytes.CutSuffix(rest, []byte(verifyRequestClose))
	if !ok {
		return false
	}
	req.Proof = new(groth16.Proof)
	return req.Proof.UnmarshalJSON(proof) == nil && req.PublicInputs.UnmarshalJSON(public) == nil
}

// VerifyResponse reports the verdict. Valid means the Groth16 proof
// verified; Claim means every public ownership-claim bit is 1 — both
// must hold for the (whole) ownership claim to stand. Claims lists the
// per-slot verdicts for bundle registrations (a single-slot model
// reports one entry). BatchSize reports how many requests shared the
// pairing product that checked this proof (> 1 when it queued behind
// busy verifiers with neighbors for the same model).
type VerifyResponse struct {
	Valid     bool   `json:"valid"`
	Claim     bool   `json:"claim"`
	Claims    []bool `json:"claims,omitempty"`
	BatchSize int    `json:"batch_size"`
	Error     string `json:"error,omitempty"`
}

// AggregateRequest folds N proofs for one registered model into a
// single aggregation artifact. All proofs must be under the same
// model's verifying key; public_inputs carries one instance per proof,
// in proof order.
type AggregateRequest struct {
	ModelID      string                 `json:"model_id"`
	Proofs       []*groth16.Proof       `json:"proofs"`
	PublicInputs []groth16.PublicInputs `json:"public_inputs"`
}

// AggregateResponse reports the fold. Valid means every member proof
// verified and the artifact was issued; Aggregate is the O(log N)
// proof-of-proofs and SRSKey the inner-pairing-product verifier key it
// must be checked against (groth16.VerifyAggregate). Claims holds one
// all-slots-claimed verdict per member proof, in order; Claim is their
// conjunction. BatchSize is the size of the fold, which is Count: a set
// is folded on its own.
type AggregateResponse struct {
	Valid     bool                    `json:"valid"`
	Claim     bool                    `json:"claim"`
	Claims    []bool                  `json:"claims,omitempty"`
	Count     int                     `json:"count"`
	BatchSize int                     `json:"batch_size"`
	Aggregate *groth16.AggregateProof `json:"aggregate,omitempty"`
	SRSKey    *ipp.VerifierKey        `json:"srs_key,omitempty"`
	Error     string                  `json:"error,omitempty"`
}

// EngineStatsWire mirrors engine.Stats with wall-clock totals in
// milliseconds.
type EngineStatsWire struct {
	Setups       uint64  `json:"setups"`
	MemHits      uint64  `json:"mem_hits"`
	DiskHits     uint64  `json:"disk_hits"`
	Solves       uint64  `json:"solves"`
	Proves       uint64  `json:"proves"`
	StreamProves uint64  `json:"stream_proves"`
	SpillProves  uint64  `json:"spill_proves"`
	Verifies     uint64  `json:"verifies"`
	Aggregates   uint64  `json:"aggregates"`
	SetupMS      float64 `json:"setup_ms"`
	SolveMS      float64 `json:"solve_ms"`
	ProveMS      float64 `json:"prove_ms"`
	VerifyMS     float64 `json:"verify_ms"`
	AggregateMS  float64 `json:"aggregate_ms"`
}

// ServiceStats surfaces prove-queue and verify-pool counters. Apart from
// Models and QueueCapacity (state and configuration), every field is a
// typed view of a series this server serves on /metrics.
type ServiceStats struct {
	Models int `json:"models"`
	// CircuitsCompiled counts Algorithm-1 circuit compilations. Circuits
	// compile once at registration and are pinned to the record; prove
	// jobs — including suspect-model jobs — only rebind inputs and
	// solve, so this stays flat however many jobs run.
	CircuitsCompiled uint64 `json:"circuits_compiled"`
	JobsSubmitted    uint64 `json:"jobs_submitted"`
	JobsRejected     uint64 `json:"jobs_rejected"`
	JobsCompleted    uint64 `json:"jobs_completed"`
	JobsFailed       uint64 `json:"jobs_failed"`
	QueueDepth       int    `json:"queue_depth"`
	QueueCapacity    int    `json:"queue_capacity"`
	// VerifyRequests counts verification requests accepted onto the
	// verify queue (well-formed, correct input length).
	VerifyRequests uint64 `json:"verify_requests"`
	// VerifyBatchCalls counts BatchVerify invocations that folded ≥ 2
	// requests into one pairing product.
	VerifyBatchCalls uint64 `json:"verify_batch_calls"`
	// VerifyBatchedRequests counts requests served by those calls.
	VerifyBatchedRequests uint64 `json:"verify_batched_requests"`
	// VerifyMaxBatch is the largest batch folded so far.
	VerifyMaxBatch uint64 `json:"verify_max_batch"`
	// VerifyFallbacks counts batches that failed as a whole and were
	// re-checked proof-by-proof to attribute the failure.
	VerifyFallbacks uint64 `json:"verify_fallbacks"`
	// VerifyDecodeFallbacks counts verify request bodies that took the
	// general encoding/json path: anything but the canonical bytes
	// VerifyRequest.AppendJSON writes, malformed requests included.
	VerifyDecodeFallbacks uint64 `json:"verify_decode_fallbacks"`
	// AggregateRequests counts /v1/aggregate requests accepted.
	AggregateRequests uint64 `json:"aggregate_requests"`
	// AggregateArtifacts counts aggregation artifacts issued.
	AggregateArtifacts uint64 `json:"aggregate_artifacts"`
	// AggregateFallbacks counts aggregate sets that failed as a whole
	// and fell back to per-proof attribution (no artifact issued).
	AggregateFallbacks uint64 `json:"aggregate_fallbacks"`
	// QueueWaitSeconds is the distribution of time this server's jobs
	// spent queued before dispatch (zkrownn_queue_wait_seconds on
	// /metrics).
	QueueWaitSeconds *HistogramWire `json:"queue_wait_seconds,omitempty"`
	// VerifyBatchSize is the distribution of requests folded into one
	// verify pairing product (zkrownn_verify_batch_size on /metrics).
	VerifyBatchSize *HistogramWire `json:"verify_batch_size,omitempty"`
}

// HistogramWire is the JSON shape of a metrics histogram: per-bucket
// (non-cumulative) counts by upper bound; observations above the last
// bound are implied by Count.
type HistogramWire struct {
	Count   uint64                `json:"count"`
	Sum     float64               `json:"sum"`
	Buckets []HistogramBucketWire `json:"buckets,omitempty"`
}

// HistogramBucketWire is one histogram bucket.
type HistogramBucketWire struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	Engine  EngineStatsWire `json:"engine"`
	Service ServiceStats    `json:"service"`
}

// ErrorResponse is the uniform error payload. RequestID repeats the
// response's X-Request-Id header so an error quoted without its headers
// still names the request.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status string `json:"status"`
}
