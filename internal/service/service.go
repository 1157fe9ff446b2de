// Package service is the ZKROWNN proof service: an HTTP JSON API that
// puts the prover engine to work as an online ownership-proof endpoint,
// the deployment shape the paper's dispute story implies (a model
// registry or auditor that third parties query over the wire).
//
// Three request families wrap engine.Engine:
//
//   - Registry: POST /v1/models registers an ownership circuit (model +
//     watermark key + parameters); the server compiles Algorithm 1, runs
//     — or reuses — trusted setup, and files the verifying key under the
//     circuit digest. Digest-keyed IDs make registration idempotent, and
//     VKs persist to the registry directory across restarts.
//
//   - Async proving: POST /v1/models/{id}/prove enqueues a job on a
//     bounded queue (a full queue answers 429) and returns a job ID;
//     GET /v1/jobs/{id} polls status; the finished job carries the proof
//     and public inputs, also available raw at GET /v1/jobs/{id}/proof.
//     As many workers as the engine proves at once each pull one job at
//     a time.
//
//   - Verification: POST /v1/models/{id}/verify and POST /v1/aggregate
//     queue for a pool of GOMAXPROCS verifiers. An idle verifier checks
//     a proof at once; requests that had to queue because every verifier
//     was busy are folded, per model, into one groth16.BatchVerify.
//
// Both pools schedule by load alone — there is no timer and no batch
// size to tune. GET /healthz and GET /v1/stats (engine + queue + batch
// counters) round out the operational surface.
package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/core"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/obs"
	"zkrownn/internal/watermark"
)

// Options configures a Server. The zero value is usable: an in-memory
// registry, a fresh engine with default options and a 64-deep prove
// queue.
type Options struct {
	// Engine, when non-nil, is used (and NOT closed by Server.Close —
	// the caller owns its lifecycle). Otherwise the server builds its
	// own from EngineOptions and closes it on shutdown.
	Engine *engine.Engine
	// EngineOptions configures the server-owned engine (ignored when
	// Engine is set). Set EngineOptions.CacheDir to persist trusted-
	// setup keys across restarts.
	EngineOptions engine.Options
	// RegistryDir, when non-empty, persists verifying keys and model
	// metadata across restarts.
	RegistryDir string
	// QueueDepth bounds the async prove queue (default 64). Submissions
	// beyond it are rejected with 429.
	QueueDepth int
	// JobRetention caps how many finished (done or failed) jobs remain
	// pollable; the oldest are evicted beyond it so a long-running
	// server's job table — proofs included — stays bounded (default
	// 1024; negative disables eviction).
	JobRetention int
	// MaxBodyBytes bounds request bodies (default 64 MiB — model JSON
	// can be large).
	MaxBodyBytes int64
	// Logger, when set, receives the service's structured logs (one
	// record per HTTP request with request ID, route, status, and
	// latency; one per job state change with job and request IDs; one
	// per registration, persistence failure and recovered panic). Unset,
	// logs are discarded.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — off by
	// default because the profiling surface (heap dumps, symbol tables)
	// should not face untrusted networks.
	EnablePprof bool
}

// Server implements http.Handler for the proof-service API.
type Server struct {
	opts       Options
	eng        *engine.Engine
	ownsEngine bool
	reg        *registry
	queue      *jobQueue
	verify     *verifyPool
	mux        *http.ServeMux
	log        *slog.Logger
	m          *metrics

	closed    atomic.Bool
	closeOnce sync.Once

	// testJobStall and testVerifyStall, when set by tests, run at the
	// head of every prove job and every verify batch — hooks to hold a
	// pool busy (or panic inside it) deterministically.
	testJobStall, testVerifyStall func()
}

// New builds a Server and starts its prove and verify workers.
func New(opts Options) (*Server, error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.JobRetention == 0 {
		opts.JobRetention = 1024
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	s := &Server{opts: opts, log: opts.Logger}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	reg, err := newRegistry(opts.RegistryDir, s.log)
	if err != nil {
		return nil, err
	}
	s.reg = reg
	if opts.Engine != nil {
		s.eng = opts.Engine
	} else {
		s.eng = engine.New(opts.EngineOptions)
		s.ownsEngine = true
	}
	s.m = newMetrics(func() float64 { return float64(s.queue.depth()) })
	s.queue = newJobQueue(s, opts.QueueDepth, s.eng.Workers(), opts.JobRetention)
	s.verify = newVerifyPool(s)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// This server's series, its engine's, and the process-wide disk I/O
	// counters that sit below any engine.
	mux.Handle("GET /metrics", obs.Handler(s.m.reg, s.eng.Metrics(), obs.Default()))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/models", s.handleRegister)
	mux.HandleFunc("GET /v1/models", s.handleListModels)
	mux.HandleFunc("GET /v1/models/{id}", s.handleGetModel)
	mux.HandleFunc("POST /v1/models/{id}/prove", s.handleProve)
	mux.HandleFunc("POST /v1/models/{id}/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/proof", s.handleJobProof)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	if opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	if n := reg.len(); n > 0 {
		s.log.Info("registry restored", "models", n, "dir", opts.RegistryDir)
	}
	return s, nil
}

// Engine exposes the backing prover engine (for embedders that want to
// share it or inspect raw stats).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Close shuts the service down gracefully: new requests are answered
// 503, both pools finish the work they hold and fail whatever is still
// queued (verifies with 503, jobs as failed), and — when the server owns
// its engine — the engine drains in-flight provers and flushes its disk
// cache writes before rejecting further work with engine.ErrClosed.
// Idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.verify.close()
		s.queue.close()
		if s.ownsEngine {
			err = s.eng.Close()
		}
	})
	return err
}

// recoverWorker is deferred around one iteration of a pool worker. A
// panic there is logged once with its stack, counted, and handed to fail
// as errInternal so whoever waits on that work gets an answer; the
// worker itself keeps running.
func (s *Server) recoverWorker(pool string, fail func(error)) {
	r := recover()
	if r == nil {
		return
	}
	s.m.panics[pool].Inc()
	s.log.Error("worker panic", "pool", pool, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
	fail(errInternal)
}

// reqIDKey carries the per-request ID through handler contexts.
type reqIDKey struct{}

// requestID returns the ID ServeHTTP tagged this request with.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// requestIDHeader carries the correlation ID in both directions.
const requestIDHeader = "X-Request-Id"

// validRequestID reports whether a caller-supplied ID may be echoed into
// headers, logs and JSON bodies: 1–64 bytes of [A-Za-z0-9._-].
func validRequestID(id string) bool {
	return 1 <= len(id) && len(id) <= 64 && !strings.ContainsFunc(id, func(r rune) bool {
		return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '.' || r == '_' || r == '-')
	})
}

// statusRecorder captures the response status for the request log, and
// whether any of the response has gone out.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status, sr.wrote = code, true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler. Every request is tagged with a
// request ID — the caller's X-Request-Id when it is well-formed, a fresh
// one otherwise — that is returned on the response header and in error
// bodies, propagated to the job a submission creates, and logged
// structurally with route, status, and latency. A handler panic is
// logged with its stack, counted under the "http" pool, and answered
// 500 with the request ID; if part of the response had already gone
// out, the connection is cut instead.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.httpRequests.Inc()
	reqID := r.Header.Get(requestIDHeader)
	if !validRequestID(reqID) {
		reqID = obs.NewID()
	}
	w.Header().Set(requestIDHeader, reqID)
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, reqID))
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	defer func() {
		p := recover()
		if p != nil {
			s.m.panics["http"].Inc()
			s.log.Error("handler panic", "req_id", reqID, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
		}
		cut := p != nil && rec.wrote
		if p != nil && !cut {
			writeError(rec, http.StatusInternalServerError, "internal error")
		}
		s.log.Info("http",
			"req_id", reqID, "method", r.Method, "path", r.URL.Path,
			"status", rec.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1e3)
		if cut {
			panic(http.ErrAbortHandler)
		}
	}()
	s.mux.ServeHTTP(rec, r)
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es, m := s.eng.Stats(), s.m
	writeJSON(w, http.StatusOK, StatsResponse{
		Engine: EngineStatsWire{
			Setups:       es.Setups,
			MemHits:      es.MemHits,
			DiskHits:     es.DiskHits,
			Solves:       es.Solves,
			Proves:       es.Proves,
			StreamProves: es.StreamProves,
			SpillProves:  es.SpillProves,
			Verifies:     es.Verifies,
			Aggregates:   es.Aggregates,
			SetupMS:      float64(es.SetupTime.Microseconds()) / 1e3,
			SolveMS:      float64(es.SolveTime.Microseconds()) / 1e3,
			ProveMS:      float64(es.ProveTime.Microseconds()) / 1e3,
			VerifyMS:     float64(es.VerifyTime.Microseconds()) / 1e3,
			AggregateMS:  float64(es.AggregateTime.Microseconds()) / 1e3,
		},
		Service: ServiceStats{
			Models:                s.reg.len(),
			CircuitsCompiled:      m.circuitsCompiled.Value(),
			JobsSubmitted:         m.jobsSubmitted.Value(),
			JobsRejected:          m.jobsRejected.Value(),
			JobsCompleted:         m.jobsCompleted.Value(),
			JobsFailed:            m.jobsFailed.Value(),
			QueueDepth:            s.queue.depth(),
			QueueCapacity:         s.opts.QueueDepth,
			VerifyRequests:        m.verifyRequests.Value(),
			VerifyBatchCalls:      m.verifyBatchCalls.Value(),
			VerifyBatchedRequests: m.verifyBatchedRequests.Value(),
			VerifyMaxBatch:        uint64(m.verifyMaxBatch.Value()),
			VerifyFallbacks:       m.verifyFallbacks.Value(),
			VerifyDecodeFallbacks: m.verifyDecodeFallbacks.Value(),
			AggregateRequests:     m.aggregateRequests.Value(),
			AggregateArtifacts:    m.aggregateArtifacts.Value(),
			AggregateFallbacks:    m.aggregateFallbacks.Value(),
			QueueWaitSeconds:      histogramWire(m.queueWaitSeconds.Snapshot()),
			VerifyBatchSize:       histogramWire(m.verifyBatchSize.Snapshot()),
		},
	})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed register request: "+err.Error())
		return
	}
	if len(req.Model) == 0 || len(req.Key) == 0 {
		writeError(w, http.StatusBadRequest, "register request needs both model and key")
		return
	}
	net, err := nn.Load(bytes.NewReader(req.Model))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad model: "+err.Error())
		return
	}
	var key watermark.Key
	if err := json.Unmarshal(req.Key, &key); err != nil {
		writeError(w, http.StatusBadRequest, "bad watermark key: "+err.Error())
		return
	}
	if err := key.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.FracBits <= 0 {
		req.FracBits = 16
	}
	if req.BundleSlots == 0 {
		req.BundleSlots = 1
	}
	spec := core.Spec{Committed: req.Committed, Slots: req.BundleSlots, FracBits: req.FracBits, MaxErrors: req.MaxErrors}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Compile once: the circuit is pinned to the record and every prove
	// job — registered model or same-architecture suspect — only binds
	// inputs and replays the solver program.
	art, err := spec.Compile(net, &key)
	if err != nil {
		writeError(w, http.StatusBadRequest, "circuit compilation failed: "+err.Error())
		return
	}
	s.m.circuitsCompiled.Inc()
	rec := &modelRecord{
		recordMeta: recordMeta{
			ID:            art.System.DigestHex(),
			Name:          req.Name,
			Spec:          spec,
			LayerIndex:    key.LayerIndex,
			SignatureBits: key.NbBits(),
			Constraints:   art.System.NbConstraints(),
			PublicInputs:  art.System.NbPublic - 1,
			CreatedAt:     time.Now(),
		},
		art: art,
	}
	if spec.Committed {
		// Pin the digest binding committed proofs to this model: the
		// first public input of the instance the circuit was built with.
		d := art.PublicInputs()[0].Bytes()
		rec.CommittedDigest = hex.EncodeToString(d[:])
	}
	// Prove jobs re-solve witnesses from the assignment; the build-time
	// eager witness (NbWires × 32 B per model, for the life of the
	// record) is dead weight here.
	art.Witness = nil

	// Eager setup: registration pays the trusted-setup cost once so
	// prove jobs hit the key cache. Same-digest re-registration reuses
	// the cached keys and therefore returns the identical VK.
	keys, cached, err := s.eng.Keys(art.System, nil)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "trusted setup failed: "+err.Error())
		return
	}
	rec.VK = keys.VK

	existed, err := s.reg.put(rec)
	if err != nil {
		// The record is registered in memory; persistence is best-effort
		// but surfaced, matching the engine's PersistErr contract.
		s.log.Warn("registry persist failed", "model_id", rec.ID, "err", err.Error())
	}
	s.log.Info("model registered", "req_id", requestID(r.Context()), "model_id", rec.ID,
		"constraints", rec.Constraints, "setup_cached", cached, "already_registered", existed)
	writeJSON(w, http.StatusOK, RegisterResponse{
		ModelID:           rec.ID,
		Name:              rec.Name,
		AlreadyRegistered: existed,
		SetupCached:       cached,
		Constraints:       rec.Constraints,
		PublicInputs:      rec.PublicInputs,
		Committed:         rec.Committed,
		BundleSlots:       rec.Slots,
		FalseClaimBound:   rec.falseClaimBound(),
		VK:                rec.VK,
	})
}

func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request) {
	recs := s.reg.list()
	infos := make([]ModelInfo, len(recs))
	for i, rec := range recs {
		infos[i] = rec.info()
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model")
		return
	}
	writeJSON(w, http.StatusOK, ModelResponse{ModelInfo: rec.info(), VK: rec.VK})
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model")
		return
	}
	if !rec.canProve() {
		writeError(w, http.StatusConflict,
			"model has no prove material (registered before a restart?); re-register it")
		return
	}
	var req ProveRequest
	if r.ContentLength != 0 {
		if err := decodeStrict(r.Body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "malformed prove request: "+err.Error())
			return
		}
	}
	if len(req.SuspectModel) > 0 && len(req.SuspectModels) > 0 {
		writeError(w, http.StatusBadRequest, "use either suspect_model or suspect_models, not both")
		return
	}
	// Normalize the legacy single-suspect field into a 1-entry bundle.
	raws := req.SuspectModels
	if len(raws) == 0 && len(req.SuspectModel) > 0 {
		raws = []json.RawMessage{req.SuspectModel}
	}
	var suspects []*nn.Network
	if len(raws) > 0 {
		if len(raws) != rec.Slots {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("bundle carries %d suspect models, model has %d claim slots", len(raws), rec.Slots))
			return
		}
		suspects = make([]*nn.Network, len(raws))
		any := false
		for i, raw := range raws {
			if len(raw) == 0 || string(raw) == "null" {
				continue // keep the registered model in this slot
			}
			net, err := nn.Load(bytes.NewReader(raw))
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad suspect model in slot %d: %v", i, err))
				return
			}
			suspects[i] = net
			any = true
		}
		if !any {
			suspects = nil // all-null bundle == prove the registered model
		}
	}

	j, err := s.queue.submit(rec, suspects, requestID(r.Context()), req.Trace)
	switch {
	case errors.Is(err, errQueueFull):
		s.m.jobsRejected.Inc()
		writeError(w, http.StatusTooManyRequests, "prove queue full, retry later")
		return
	case errors.Is(err, errShutdown):
		writeError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.m.jobsSubmitted.Inc()
	s.log.Info("job submitted",
		"req_id", requestID(r.Context()), "job_id", j.id, "model_id", rec.ID,
		"traced", req.Trace, "queue_depth", s.queue.depth())
	writeJSON(w, http.StatusAccepted, ProveAccepted{
		JobID:      j.id,
		ModelID:    rec.ID,
		Status:     JobQueued,
		QueueDepth: s.queue.depth(),
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobProof streams the finished proof in the compact binary
// encoding — the 128-byte artifact a dispute transcript files.
func (s *Server) handleJobProof(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	snap := j.snapshot()
	switch snap.Status {
	case JobDone:
	case JobFailed:
		writeError(w, http.StatusConflict, "job failed: "+snap.Error)
		return
	default:
		writeError(w, http.StatusConflict, "job not finished (status "+snap.Status+")")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := snap.Proof.WriteTo(w); err != nil {
		s.log.Warn("proof stream failed", "job_id", j.id, "err", err.Error())
	}
}

// handleJobTrace serves a finished job's per-phase timeline in Chrome
// trace-event JSON — loadable directly in chrome://tracing or Perfetto.
// Jobs record one only when submitted with trace=true.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusNotFound, "job has no trace (submit with \"trace\": true)")
		return
	}
	snap := j.snapshot()
	if snap.Status != JobDone && snap.Status != JobFailed {
		writeError(w, http.StatusConflict, "job not finished (status "+snap.Status+")")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.trace.WriteChrome(w); err != nil {
		s.log.Warn("trace stream failed", "job_id", j.id, "err", err.Error())
	}
}

// handleVerify checks one proof against a registered circuit's key. The
// body is one VerifyRequest object and nothing after it but whitespace:
// trailing bytes are a 400 here as on every route, on the direct decode
// path and the encoding/json one alike (decodeVerifyRequest,
// decodeStrict).
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model")
		return
	}
	var req VerifyRequest
	if err := s.decodeVerifyRequest(r.Body, &req); err != nil {
		// Malformed or tampered material (a proof point off the curve or
		// outside its subgroup fails here, in the envelope decoder) is a
		// client error, not a server one.
		writeError(w, http.StatusBadRequest, "malformed verify request: "+err.Error())
		return
	}
	if req.Proof == nil {
		writeError(w, http.StatusBadRequest, "verify request needs a proof")
		return
	}
	if got, want := len(req.PublicInputs), len(rec.VK.IC)-1; got != want {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("expected %d public inputs, got %d", want, got))
		return
	}
	s.m.verifyRequests.Inc()

	out := s.verify.do(&verifyItem{
		rec:     rec,
		proofs:  []*groth16.Proof{req.Proof},
		publics: [][]fr.Element{req.PublicInputs},
	})
	if poolFailure(w, out.err) {
		return
	}
	resp := VerifyResponse{BatchSize: out.batchSize}
	if out.err != nil {
		resp.Error = out.err.Error()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if claims, verr := rec.verdict(req.PublicInputs); verr != nil {
		resp.Error = verr.Error()
	} else {
		resp.Valid = true
		resp.Claims = claims
		resp.Claim = !slices.Contains(claims, false)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAggregate folds N proofs for one registered model into a
// single O(log N) aggregation artifact (SnarkPack): the auditable
// registry object for "these N ownership claims all verify". The set is
// one item on the verify queue, folded on its own, so the artifact
// depends on these proofs and nothing else; the response carries it plus
// the SRS verifier key third parties must check it against.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	var req AggregateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed aggregate request: "+err.Error())
		return
	}
	rec, ok := s.reg.get(req.ModelID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model")
		return
	}
	if len(req.Proofs) == 0 {
		writeError(w, http.StatusBadRequest, "aggregate request needs at least one proof")
		return
	}
	if len(req.Proofs) != len(req.PublicInputs) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d proofs but %d public-input sets", len(req.Proofs), len(req.PublicInputs)))
		return
	}
	want := len(rec.VK.IC) - 1
	for i, pub := range req.PublicInputs {
		if req.Proofs[i] == nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("proof %d is null", i))
			return
		}
		if len(pub) != want {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("proof %d: expected %d public inputs, got %d", i, want, len(pub)))
			return
		}
	}
	s.m.verifyRequests.Add(uint64(len(req.Proofs)))
	s.m.aggregateRequests.Inc()
	s.m.aggregateRequestProofs.Observe(float64(len(req.Proofs)))

	// The verdicts — and a committed record's digest binding — are
	// instance properties; read them before spending pairings on the fold.
	claims := make([]bool, len(req.PublicInputs))
	for i, pub := range req.PublicInputs {
		c, verr := rec.verdict(pub)
		if verr != nil {
			writeJSON(w, http.StatusOK, AggregateResponse{
				Count: len(req.Proofs),
				Error: fmt.Sprintf("proof %d: %s", i, verr.Error()),
			})
			return
		}
		claims[i] = !slices.Contains(c, false)
	}

	publics := make([][]fr.Element, len(req.PublicInputs))
	for i, pub := range req.PublicInputs {
		publics[i] = pub
	}
	out := s.verify.do(&verifyItem{rec: rec, proofs: req.Proofs, publics: publics, aggregate: true})
	if poolFailure(w, out.err) {
		return
	}
	resp := AggregateResponse{
		Count:     len(req.Proofs),
		BatchSize: out.batchSize,
		Aggregate: out.agg,
		SRSKey:    out.srsVK,
	}
	if out.err != nil {
		resp.Error = out.err.Error()
	} else {
		resp.Valid = true
		resp.Claims = claims
		resp.Claim = !slices.Contains(claims, false)
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- helpers ---

// decodeVerifyRequest reads the body whole — behind ServeHTTP's
// MaxBytesReader, into a buffer that grows with the bytes actually read,
// never from a declared length — and decodes it: directly when it is the
// canonical bytes every client of ours sends (VerifyRequest.AppendJSON),
// otherwise, counted, with encoding/json over the same bytes. The
// verdict, the decoded request and every error message are those of the
// encoding/json path; the direct one only ever succeeds.
func (s *Server) decodeVerifyRequest(r io.Reader, req *VerifyRequest) error {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	if req.decodeCanonical(buf.Bytes()) {
		return nil
	}
	s.m.verifyDecodeFallbacks.Inc()
	*req = VerifyRequest{}
	return decodeStrict(&buf, req)
}

// decodeStrict decodes one JSON value with encoding/json — every route's
// request body, and the general path of the verify route — and rejects
// anything but whitespace after it. (A bare json.Decoder.Decode stops at
// the end of the first value and would take `{…}garbage`.)
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the request object")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with the uniform error body, naming the request by
// the ID ServeHTTP put on the response header.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, RequestID: w.Header().Get(requestIDHeader)})
}

// poolFailure answers the verify outcomes that are the service's doing,
// not the proof's — shutdown 503, a recovered panic 500 — and reports
// whether it wrote one.
func poolFailure(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, errShutdown), errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "service shutting down")
	case errors.Is(err, errInternal):
		writeError(w, http.StatusInternalServerError, "internal error")
	default:
		return false
	}
	return true
}
