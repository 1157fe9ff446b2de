// Package engine is ZKROWNN's prover engine: a concurrent, cache-aware
// subsystem that owns the Groth16 setup → prove → verify lifecycle for
// many requests.
//
// The engine keys trusted setup on the circuit digest
// (r1cs.CompiledSystem.Digest): two requests for the same circuit
// *architecture* — the common shape of ownership disputes, where one
// model family is proved over and over against different suspect
// weights — share one setup. Keys live in a bounded in-memory LRU with
// an optional on-disk tier (the raw proving-key encoding and the
// compressed verifying key, each under diskfile's integrity frame), so
// a restarted service skips every setup it has ever run; the compiled
// system itself is cached beside the keys, so solve-many requests may
// name the circuit by digest instead of re-sending it. Concurrent
// requests for the same digest are deduplicated: one goroutine runs
// setup, the rest wait for it.
//
// Requests carry input assignments rather than full witnesses by
// default: the engine replays the circuit's recorded solver program
// (CompiledSystem.Solve) per job — the compile-once / solve-many split
// that keeps multi-million-constraint circuits from being rebuilt on
// every proof.
//
// ProveMany fans requests across a worker pool; VerifyMany folds many
// proofs under one verifying key into a single batched pairing product.
// Every stage is metered (Stats) so operators can see cache hit rates
// and where wall-clock time goes.
package engine

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/groth16"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
)

// Options configures an Engine. The zero value is usable: a small
// memory-only cache and one prover worker per core.
type Options struct {
	// CacheEntries bounds the in-memory key cache (default 16; a
	// negative value means unbounded).
	CacheEntries int
	// CacheDir, when non-empty, enables on-disk key persistence keyed by
	// circuit digest. The directory is created on first write, mode
	// 0700: an extraction circuit carries its watermark key in its
	// coefficients, so the spilled .csr is key material like the .pk.
	CacheDir string
	// Workers sizes the ProveMany pool (default GOMAXPROCS).
	Workers int
	// Rand supplies setup and prover randomness (default crypto/rand).
	// It must be safe for concurrent use; the engine serializes setup
	// internally but proves concurrently.
	Rand io.Reader
	// MemoryBudget, when > 0, selects each circuit's residency
	// (planResidency: the one place it is read): a circuit whose raw
	// proving key exceeds it is set up and proved fully out-of-core — key,
	// CSR and witness on disk — and any other keeps all three in RAM. It
	// selects a residency; it is not a ceiling on resident bytes. Set it
	// to 1 to prove every circuit out-of-core. On-disk residents live in
	// CacheDir when configured (the spilled key doubles as the cache
	// entry), otherwise in a temporary directory removed on Close.
	MemoryBudget int64
}

// Request is one proving job. The compile-once / solve-many shape is
// the default: carry the compiled system (or the digest of one the
// engine has already seen) plus the per-proof input assignment, and the
// engine replays the circuit's solver program to rebuild the witness.
// Callers that already hold a full witness may pass it instead.
type Request struct {
	Name string
	// Ctx, when non-nil, carries request-scoped telemetry: a trace
	// attached with obs.ContextWithTrace receives per-phase spans for the
	// whole setup → solve → prove pipeline. The engine does not honor
	// cancellation — proofs run to completion once started.
	Ctx context.Context
	// System is the compiled circuit. It may be nil when Digest names a
	// circuit the engine has cached from an earlier request.
	System *r1cs.CompiledSystem
	// Digest optionally identifies a cached circuit (hex, as returned in
	// Result.Digest) so solve-many callers don't re-send the system.
	// Ignored when System is set.
	Digest string
	// Public and Secret bind the circuit's declared inputs, in
	// declaration order (r1cs.Assignment halves); the engine solves the
	// witness from them (Result.SolveTime reports the cost).
	Public []fr.Element
	Secret []fr.Element
	// Rand overrides the engine's randomness source for this request
	// (useful for deterministic tests). The engine serializes reads from
	// a per-request source, so a plain math/rand Reader is safe.
	Rand io.Reader
}

// Result reports one proving job's artifacts and per-stage timings.
type Result struct {
	Name   string
	Digest string
	Keys   *KeyPair
	Proof  *groth16.Proof
	// PublicInputs is the proof's instance — the public wires in the
	// order Verify expects (CompiledSystem.PublicValues). Always
	// populated, whichever residency the witness had.
	PublicInputs []fr.Element
	// SetupTime is the wall-clock cost of obtaining keys. On a cache hit
	// it is the lookup cost — effectively zero next to a real setup.
	SetupTime time.Duration
	// SolveTime is the witness-generation cost.
	SolveTime time.Duration
	ProveTime time.Duration
	// CacheHit is true when setup was skipped (memory or disk tier).
	CacheHit bool
	// PersistErr reports a failed write to the disk cache tier. The keys
	// are still cached in memory and fully usable; it is surfaced so
	// callers don't promise on-disk keys that don't exist.
	PersistErr error
	// Err is set instead of returned so ProveMany can report per-request
	// failures without abandoning the rest of the batch.
	Err error
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Setups   uint64 // trusted setups actually executed
	MemHits  uint64 // key lookups served from the in-memory LRU
	DiskHits uint64 // key lookups served from the disk tier
	Solves   uint64 // witnesses generated by solver-program replay
	Proves   uint64
	// StreamProves and SpillProves both count the proves made
	// out-of-core (streamed key, CSR file, spilled witness): a key never
	// streams without the rest, so the two always read the same.
	StreamProves uint64
	SpillProves  uint64
	Verifies     uint64 // individual + batched verification calls
	Aggregates   uint64 // aggregation artifacts produced
	SetupTime    time.Duration
	SolveTime    time.Duration
	ProveTime    time.Duration
	VerifyTime   time.Duration
	// AggregateTime is aggregation wall-clock (prove + self-check).
	AggregateTime time.Duration
}

// ErrClosed is returned by every Engine entry point after Close: the
// sentinel a service front-end turns into a "shutting down" response.
var ErrClosed = errors.New("engine: engine is closed")

// Engine is safe for concurrent use by multiple goroutines.
//
// Stats may be read at any time, including while proves and verifies
// are running on other goroutines; the snapshot is per-series atomic,
// not a globally consistent cut, which is fine for monitoring.
type Engine struct {
	opts  Options
	cache *keyCache
	m     *metrics

	// lifecycle serializes Close against in-flight work: every public
	// entry point holds a read lock for its whole duration, so Close
	// (the sole writer) blocks until in-flight proves and their disk
	// cache writes have drained, and every later acquisition fails with
	// ErrClosed.
	lifecycle sync.RWMutex
	closed    bool

	// inflight deduplicates concurrent setups per digest.
	inflightMu sync.Mutex
	inflight   map[string]*setupCall

	// streamDir is the lazily created spill directory for streamed keys
	// when no CacheDir is configured; Close removes it.
	streamMu  sync.Mutex
	streamDir string

	// srs is the lazily built proof-aggregation SRS (see aggregate.go).
	srsMu sync.Mutex
	srs   *ipp.SRS
}

type setupCall struct {
	done       chan struct{}
	keys       *KeyPair
	err        error
	persistErr error
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 16
	}
	if opts.CacheEntries < 0 {
		opts.CacheEntries = 0 // unbounded in keyCache terms
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	return &Engine{
		opts:     opts,
		cache:    newKeyCache(opts.CacheEntries),
		m:        newMetrics(),
		inflight: make(map[string]*setupCall),
	}
}

// Workers reports how many requests ProveMany proves at once
// (Options.Workers, defaulted): the size a caller running its own prove
// loop should match.
func (e *Engine) Workers() int { return e.opts.Workers }

// acquire registers one unit of in-flight work against Close. It fails
// with ErrClosed once Close has run (or is waiting: a pending writer
// blocks new readers, so requests arriving during a drain are rejected
// as soon as it completes).
func (e *Engine) acquire() error {
	e.lifecycle.RLock()
	if e.closed {
		e.lifecycle.RUnlock()
		return ErrClosed
	}
	return nil
}

func (e *Engine) release() { e.lifecycle.RUnlock() }

// Close shuts the engine down gracefully: it waits for in-flight work —
// proves, setups, and their write-through disk cache persistence, all of
// which run under a lifecycle read lock — to drain, then marks the
// engine closed so every subsequent call fails with ErrClosed. The key
// caches (memory and disk) are left intact. Close is idempotent and safe
// to call concurrently.
func (e *Engine) Close() error {
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	e.closed = true
	// Remove the temporary spill directory, if one was created. Open
	// streamed-key handles stay readable until released (POSIX unlink
	// semantics), but no new work can reach them past this point.
	e.streamMu.Lock()
	if e.streamDir != "" {
		os.RemoveAll(e.streamDir)
		e.streamDir = ""
	}
	e.streamMu.Unlock()
	return nil
}

// rawKeySize is what a residency plan weighs: the size of the system's
// raw proving-key encoding. An unmeasurable key (an empty system) reads
// 0 and plans resident; setup then surfaces the real error.
func rawKeySize(sys *r1cs.CompiledSystem) int64 {
	raw, _ := groth16.RawPKSizeBytes(sys)
	return raw
}

// constraints returns what proves of the digest read their rows from
// under plan: sys itself, or out-of-core the digest's CSR section file.
func (e *Engine) constraints(sys *r1cs.CompiledSystem, digest string, plan Plan) (r1cs.Constraints, error) {
	if plan.Residency == OutOfCore {
		return e.ensureCSFile(sys, digest)
	}
	if sys.Stripped() {
		// A solver-only copy has placeholder CSR arrays; proving against
		// them would silently "satisfy" empty constraints.
		return nil, fmt.Errorf("engine: circuit %s is solver-only and its plan keeps the CSR resident (resend the compiled system)", digest)
	}
	return sys, nil
}

// ensureCSFile returns an open, validated handle on the digest's CSR
// spill file, writing it from sys first when missing or corrupt. A
// solver-only (stripped) system cannot regenerate the file, so its
// absence is an error instructing the caller to resend the circuit.
func (e *Engine) ensureCSFile(sys *r1cs.CompiledSystem, digest string) (*r1cs.CompiledSystemFile, error) {
	dir, err := e.keyDir()
	if err != nil {
		return nil, err
	}
	path := keyPath(dir, digest, ".csr") // beside the streamed key it is set up into
	if cf, err := r1cs.OpenCompiledSystemFile(path); err == nil {
		return cf, nil
	}
	if sys.Stripped() {
		return nil, fmt.Errorf("engine: no CSR spill file for digest %s and the cached circuit is solver-only (resend the compiled system)", digest)
	}
	if err := r1cs.WriteCompiledSystemFile(path, sys); err != nil {
		return nil, fmt.Errorf("engine: spill constraint system: %w", err)
	}
	cf, err := r1cs.OpenCompiledSystemFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: reopen spilled constraint system: %w", err)
	}
	return cf, nil
}

// keyDir resolves (creating if needed) the directory key files are
// written to: the configured CacheDir, where a streamed key's spill file
// doubles as the disk cache entry, or a process-lifetime temp dir for
// keys spilled without one.
func (e *Engine) keyDir() (string, error) {
	if e.opts.CacheDir != "" {
		return e.opts.CacheDir, e.privateCacheDir(true)
	}
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	if e.streamDir == "" {
		dir, err := os.MkdirTemp("", "zkrownn-stream-*")
		if err != nil {
			return "", err
		}
		e.streamDir = dir
	}
	return e.streamDir, nil
}

// privateCacheDir clears the group and world bits of an existing
// CacheDir and, with create, makes a missing one 0700. The directory
// lists key-bearing files, and one made 0755 (by hand, or by a build
// that did not create it 0700) would keep listing them to everyone.
func (e *Engine) privateCacheDir(create bool) error {
	dir := e.opts.CacheDir
	if create {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return err
		}
	}
	st, err := os.Stat(dir)
	if err != nil {
		if !create && os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if perm := st.Mode().Perm(); perm&0o077 != 0 {
		return os.Chmod(dir, perm&^0o077)
	}
	return nil
}

// existingKeyDir returns the directory the disk tier would have put a
// digest's keys in under residency r — CacheDir, or for keys left on disk
// the temp spill directory if one was created — and "" when there is
// none to look in (never creates). Reading keys from a CacheDir makes it
// private too; failing to tighten it does not stop the keys being read.
func (e *Engine) existingKeyDir(r Residency) string {
	if e.opts.CacheDir != "" {
		_ = e.privateCacheDir(false)
		return e.opts.CacheDir
	}
	if r == Resident {
		return ""
	}
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	return e.streamDir
}

// Keys returns the Groth16 key pair for a compiled system, running the
// trusted setup only when no cache tier holds the digest. The bool
// reports whether setup was skipped. Concurrent callers with the same
// digest share one setup execution. The compiled system is retained
// beside the keys (same LRU entry), so later requests may reference it
// by digest alone.
func (e *Engine) Keys(sys *r1cs.CompiledSystem, rng io.Reader) (*KeyPair, bool, error) {
	if err := e.acquire(); err != nil {
		return nil, false, err
	}
	defer e.release()
	keys, hit, _, _, err := e.keys(sys, rng, nil)
	return keys, hit, err
}

// DropMemoryCache empties the in-memory key/circuit cache; the disk
// tier is untouched, so later requests for a persisted digest pay a
// disk load (or, for streamed keys, a cheap re-index of the spilled
// file) instead of a re-setup. For operators this is the response to
// memory pressure; benchmarks use it so one circuit's measurement
// doesn't retain another's compiled system.
func (e *Engine) DropMemoryCache() {
	e.cache.clear()
}

func (e *Engine) keys(sys *r1cs.CompiledSystem, rng io.Reader, tr *obs.Trace) (keys *KeyPair, hit bool, digest string, persistErr error, err error) {
	digest = sys.DigestHex()
	if keys, ok := e.cache.get(digest, sys); ok {
		e.m.keycacheMemHits.Inc()
		return keys, true, digest, nil, nil
	}

	e.inflightMu.Lock()
	if call, ok := e.inflight[digest]; ok {
		e.inflightMu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, digest, nil, call.err
		}
		// A waiter's wall-clock includes the setup it blocked on, so it
		// reports hit=false: its cost accounting must not read as "free"
		// even though it didn't execute the setup itself.
		return call.keys, false, digest, call.persistErr, nil
	}
	// Re-check the memory tier under inflightMu: another goroutine may
	// have finished setup and deregistered between our miss above and
	// taking the lock — without this, that window runs a redundant setup.
	if keys, ok := e.cache.get(digest, sys); ok {
		e.inflightMu.Unlock()
		e.m.keycacheMemHits.Inc()
		return keys, true, digest, nil, nil
	}
	call := &setupCall{done: make(chan struct{})}
	e.inflight[digest] = call
	e.inflightMu.Unlock()
	// Deferred, so a panic below (a par worker failing inside setup
	// reaches this goroutine as one) still deregisters the call and wakes
	// its waiters with an error instead of parking every later request
	// for the digest — and Close behind them — forever. The panic itself
	// keeps propagating to whoever recovers for this goroutine.
	defer func() {
		p := recover()
		if p != nil {
			call.err = fmt.Errorf("engine: setup for digest %s panicked: %v", digest, p)
		}
		e.inflightMu.Lock()
		delete(e.inflight, digest)
		e.inflightMu.Unlock()
		close(call.done)
		if p != nil {
			panic(p)
		}
	}()

	// The disk load sits inside the singleflight so a cold-memory burst
	// of same-digest requests deserializes (or indexes) the key file
	// once, not once per worker. For a streamed key the disk tier is the
	// authoritative store; a hit costs one integrity pass plus section
	// indexing, never a full materialization.
	// The one read of the memory budget: decided here, once per setup or
	// disk load, and carried on the KeyPair from then on.
	plan := planResidency(rawKeySize(sys), e.opts.MemoryBudget)
	sp := tr.Span("keys/disk-load")
	if dir := e.existingKeyDir(plan.Residency); dir != "" {
		// Any failure — a missing or damaged key file, or out-of-core a CSR
		// file that cannot be rewritten from sys — is a miss; the setup
		// below then reports what is really wrong. loadKeys returns keys
		// only complete, nil with any error.
		call.keys, _ = e.loadKeys(dir, digest, sys, plan)
	}
	sp.End()
	if hit = call.keys != nil; hit {
		e.m.keycacheDiskHits.Inc()
	} else {
		e.m.keycacheMisses.Inc()
		name := "keys/setup"
		if plan.Residency == OutOfCore {
			name = "keys/setup-streamed"
		}
		sp := tr.Span(name)
		start := time.Now()
		call.keys, call.persistErr, call.err = e.setup(sys, digest, plan, e.requestRand(rng))
		elapsed := time.Since(start)
		sp.End()
		if call.err != nil {
			return nil, false, digest, nil, call.err
		}
		observeSeconds(e.m.setupSeconds, elapsed)
	}
	// Out-of-core the CSR arrays live in the section file, so the cache
	// keeps only the solver program and input layout beside the keys.
	cached := sys
	if plan.Residency == OutOfCore && !sys.Stripped() {
		cached = sys.StripForSolve()
	}
	e.cache.put(digest, call.keys, cached)
	return call.keys, hit, digest, call.persistErr, nil
}

// Prove runs one job end-to-end: keys from the cache (or a fresh setup)
// and then the Groth16 prover. The returned Result always has Err nil —
// errors are returned — but shares its layout with ProveMany results.
func (e *Engine) Prove(req Request) (*Result, error) {
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	res := e.prove(req)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

func (e *Engine) prove(req Request) *Result {
	res := &Result{Name: req.Name}
	tr := obs.TraceFrom(req.Ctx)
	sys := req.System
	if sys == nil {
		if req.Digest == "" {
			res.Err = errors.New("engine: request has no constraint system")
			return res
		}
		cached, ok := e.cache.circuit(req.Digest)
		if !ok {
			res.Err = fmt.Errorf("engine: no cached circuit for digest %s (resend the compiled system)", req.Digest)
			return res
		}
		sys = cached
	}

	sp := tr.Span("engine/keys")
	start := time.Now()
	keys, hit, digest, persistErr, err := e.keys(sys, req.Rand, tr)
	res.SetupTime = time.Since(start)
	sp.End()
	res.Digest = digest
	res.CacheHit = hit
	res.PersistErr = persistErr
	if err != nil {
		e.m.proveErrors.Inc()
		res.Err = fmt.Errorf("engine: setup: %w", err)
		return res
	}
	res.Keys = keys

	// Out-of-core the witness is solved straight into a disk-backed
	// tape, and the prover reads wires back through the same file.
	plan := keys.Plan
	var witness []fr.Element
	var wf *r1cs.WitnessFile
	if plan.Residency == OutOfCore {
		dir, derr := e.keyDir()
		if derr == nil {
			wf, derr = r1cs.NewWitnessFile(dir, sys.NbWires, plan.WitnessPageBytes)
		}
		if derr != nil {
			e.m.proveErrors.Inc()
			res.Err = fmt.Errorf("engine: witness spill store: %w", derr)
			return res
		}
		defer wf.Close()
	}
	sp = tr.Span("engine/solve")
	start = time.Now()
	if wf != nil {
		err = sys.SolveSpilled(req.Public, req.Secret, wf, tr)
	} else {
		witness, err = sys.Solve(req.Public, req.Secret)
	}
	res.SolveTime = time.Since(start)
	sp.End()
	if err != nil {
		e.m.proveErrors.Inc()
		res.Err = fmt.Errorf("engine: solve: %w", err)
		return res
	}
	observeSeconds(e.m.solveSeconds, res.SolveTime)
	if wf != nil {
		// Only the instance comes back resident: public wires [1, NbPublic).
		if n := sys.NbPublic - 1; n > 0 {
			pub := make([]fr.Element, n)
			if err := wf.ReadRange(pub, 1); err != nil {
				e.m.proveErrors.Inc()
				res.Err = fmt.Errorf("engine: read spilled public inputs: %w", err)
				return res
			}
			res.PublicInputs = pub
		} else {
			res.PublicInputs = []fr.Element{}
		}
	} else {
		res.PublicInputs = sys.PublicValues(witness)
	}

	sp = tr.Span("engine/prove")
	start = time.Now()
	if wf != nil {
		// The caller chose a budget to bound resident memory; collect the
		// setup/solve phases' garbage and return the freed pages before
		// entering the bounded-memory prove, so its footprint is the
		// pipeline's, not the allocator's leftovers.
		debug.FreeOSMemory()
	}
	// One prover whatever the residency: the key and the constraints are
	// the plan's, the witness is paged or not.
	var proof *groth16.Proof
	if wf != nil {
		proof, err = groth16.ProveSpilled(keys.cons, keys.PK, wf, e.requestRand(req.Rand), tr.Scope(""))
	} else {
		proof, err = groth16.Prove(keys.cons, keys.PK, witness, e.requestRand(req.Rand), tr.Scope(""))
	}
	res.ProveTime = time.Since(start)
	sp.End()
	if err != nil {
		e.m.proveErrors.Inc()
		res.Err = fmt.Errorf("engine: prove: %w", err)
		return res
	}
	e.m.proves.Inc()
	if plan.Residency == OutOfCore {
		e.m.streamProves.Inc()
		e.m.spillProves.Inc()
	}
	observeSeconds(e.m.proveSeconds, res.ProveTime)
	res.Proof = proof
	return res
}

// ProveMany runs the requests on the engine's worker pool and returns
// one Result per request, order-preserving. Requests sharing a circuit
// digest trigger a single trusted setup no matter how the pool
// interleaves them. Failed requests — a panicking prove included — carry
// their error in Result.Err; the rest of the batch completes.
func (e *Engine) ProveMany(reqs []Request) []*Result {
	results := make([]*Result, len(reqs))
	if err := e.acquire(); err != nil {
		for i := range reqs {
			results[i] = &Result{Name: reqs[i].Name, Err: err}
		}
		return results
	}
	defer e.release()
	workers := e.opts.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			results[i] = e.proveIsolated(reqs[i])
		}
		return results
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = e.proveIsolated(reqs[i])
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// proveIsolated is prove for ProveMany's goroutines, which nobody else
// recovers for: a panic — how any par worker failure inside the prover
// arrives, as a *par.Panic that prints the worker's stack — fails that
// request, with this goroutine's stack in the error too, instead of
// taking the process and the rest of the batch with it.
func (e *Engine) proveIsolated(req Request) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			e.m.proveErrors.Inc()
			res = &Result{Name: req.Name, Err: fmt.Errorf("engine: prove panicked: %v\n\n%s", p, debug.Stack())}
		}
	}()
	return e.prove(req)
}

// Verify checks one proof against its public inputs.
func (e *Engine) Verify(vk *groth16.VerifyingKey, proof *groth16.Proof, public []fr.Element) error {
	return e.VerifyCtx(nil, vk, proof, public)
}

// VerifyCtx is Verify honoring request-scoped telemetry: a trace on ctx
// (obs.ContextWithTrace) receives the verifier's MSM and pairing spans.
func (e *Engine) VerifyCtx(ctx context.Context, vk *groth16.VerifyingKey, proof *groth16.Proof, public []fr.Element) error {
	if err := e.acquire(); err != nil {
		return err
	}
	defer e.release()
	start := time.Now()
	err := groth16.Verify(vk, proof, public, obs.TraceFrom(ctx).Scope(""))
	e.m.verifies.Inc()
	observeSeconds(e.m.verifySeconds, time.Since(start))
	return err
}

// VerifyMany checks many proofs under one verifying key with a single
// combined pairing product (groth16.BatchVerify) — the verifier-side
// analogue of ProveMany.
func (e *Engine) VerifyMany(vk *groth16.VerifyingKey, proofs []*groth16.Proof, publicInputs [][]fr.Element) error {
	if err := e.acquire(); err != nil {
		return err
	}
	defer e.release()
	start := time.Now()
	err := groth16.BatchVerify(vk, proofs, publicInputs, e.requestRand(nil))
	e.m.verifies.Add(uint64(len(proofs)))
	observeSeconds(e.m.verifySeconds, time.Since(start))
	return err
}

// Stats returns a snapshot of the engine's counters, read from the
// series on Metrics: Setups, Solves and Proves are the observation
// counts of the zkrownn_{setup,solve,prove}_seconds histograms, and
// each *Time field is the sum of its phase's histogram.
func (e *Engine) Stats() Stats {
	st := Stats{
		MemHits:      e.m.keycacheMemHits.Value(),
		DiskHits:     e.m.keycacheDiskHits.Value(),
		StreamProves: e.m.streamProves.Value(),
		SpillProves:  e.m.spillProves.Value(),
		Verifies:     e.m.verifies.Value(),
		Aggregates:   e.m.aggregates.Value(),
	}
	st.Setups, st.SetupTime = total(e.m.setupSeconds)
	st.Solves, st.SolveTime = total(e.m.solveSeconds)
	st.Proves, st.ProveTime = total(e.m.proveSeconds)
	_, st.VerifyTime = total(e.m.verifySeconds)
	_, st.AggregateTime = total(e.m.aggregateSeconds)
	return st
}

// Metrics returns the registry holding this engine's series — the one
// Stats reads — for a front-end to render beside its own on /metrics.
func (e *Engine) Metrics() *obs.Registry { return e.m.reg }

// requestRand resolves the effective randomness source for one request.
// User-supplied readers (deterministic test sources, typically
// math/rand) are not concurrency-safe, and the same reader may back
// several requests running on different pool workers, so all of them
// share one package-wide lock. crypto/rand — the production default —
// bypasses it.
func (e *Engine) requestRand(override io.Reader) io.Reader {
	r := override
	if r == nil {
		r = e.opts.Rand
	}
	if r == rand.Reader {
		return r // crypto/rand is already concurrency-safe
	}
	return &lockedReader{r: r}
}

// userRandMu serializes every read from user-supplied randomness
// sources, whichever requests they arrived with.
var userRandMu sync.Mutex

type lockedReader struct {
	r io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	userRandMu.Lock()
	defer userRandMu.Unlock()
	return l.r.Read(p)
}
