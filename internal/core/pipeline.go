package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
)

// Metrics mirrors the columns of the paper's Table I for one circuit,
// plus the engine's cache verdict and the compile/solve split timings.
type Metrics struct {
	Name          string
	NbConstraints int
	NbPublic      int
	NbPrivate     int
	// Slots is the number of ownership-claim slots the circuit carries
	// (K for batched extraction circuits, 1 otherwise) — the divisor for
	// per-claim amortized costs.
	Slots int
	// CompileTime is the one-time circuit synthesis cost (builder →
	// CompiledSystem); zero when the caller didn't measure it.
	CompileTime time.Duration
	SetupTime   time.Duration
	// SetupCached is true when the prover engine served the keys from
	// its digest-keyed cache instead of running trusted setup.
	SetupCached bool
	PKSize      int64
	// SolveTime is the per-proof witness generation (solver-program
	// replay) — the recurring cost the compile-once split amortizes
	// against.
	SolveTime  time.Duration
	ProveTime  time.Duration
	ProofSize  int
	VKSize     int64
	VerifyTime time.Duration
	// Residency is where the engine's plan put this circuit
	// (engine.Resident unless a memory budget was exceeded).
	Residency engine.Residency
}

// String renders one Table I row.
func (m *Metrics) String() string {
	setup := fmt.Sprintf("%12.4fs", m.SetupTime.Seconds())
	if m.SetupCached {
		setup = fmt.Sprintf("%13s", "(cached)")
	}
	return fmt.Sprintf("%-24s %10d %s %10.2fMB %10.2fms %12.4fs %8dB %10.3fKB %10.3fms",
		m.Name, m.NbConstraints,
		setup, float64(m.PKSize)/1e6,
		float64(m.SolveTime.Microseconds())/1e3,
		m.ProveTime.Seconds(), m.ProofSize,
		float64(m.VKSize)/1e3, float64(m.VerifyTime.Microseconds())/1e3)
}

// Header returns the Table I column header.
func Header() string {
	return fmt.Sprintf("%-24s %10s %13s %12s %12s %13s %9s %12s %12s",
		"Benchmark", "#Constr", "Setup(s)", "PK(MB)", "Solve(ms)", "Prove(s)", "Proof", "VK(KB)", "Verify(ms)")
}

// Pipeline bundles the Groth16 artifacts of one circuit. The proving
// key, in whichever form the engine's plan chose, is Keys.PK.
type Pipeline struct {
	Artifact *Artifact
	Keys     *engine.KeyPair
	VK       *groth16.VerifyingKey
	Proof    *groth16.Proof
	Metrics  Metrics
}

// Request converts the artifact into a prover-engine request carrying
// the input assignment: the engine replays the compiled circuit's
// solver program per job (solve-many), rather than reusing the
// build-time witness.
func (a *Artifact) Request(rng io.Reader) engine.Request {
	return engine.Request{
		Name:   a.Name,
		System: a.System,
		Public: a.Assignment.Public,
		Secret: a.Assignment.Secret,
		Rand:   rng,
	}
}

// RequestFor is Request with the inputs rebound to a different
// assignment — the solve-many entry point for proving one compiled
// architecture against many instances.
func (a *Artifact) RequestFor(asg r1cs.Assignment, rng io.Reader) engine.Request {
	return engine.Request{
		Name:   a.Name,
		System: a.System,
		Public: asg.Public,
		Secret: asg.Secret,
		Rand:   rng,
	}
}

// defaultEngine backs RunPipeline so that repeated runs of the same
// circuit architecture within one process share trusted setup — the
// engine's whole point. The cache is kept small (2 entries) because
// proving keys can run to hundreds of MB at paper scale and RunPipeline
// callers typically iterate circuits back-to-back, where 2 entries
// already serve the repeat pattern. Callers needing a deeper cache,
// isolation, or disk persistence build their own engine and use
// RunPipelineWith.
var defaultEngine = engine.New(engine.Options{CacheEntries: 2})

// RunPipeline executes setup → prove → verify for the artifact and
// collects Table I metrics. rng supplies setup/prover randomness
// (crypto/rand when nil). It is a thin wrapper over the process-wide
// prover engine: a second run for the same circuit digest skips setup.
func RunPipeline(art *Artifact, rng io.Reader) (*Pipeline, error) {
	return RunPipelineWith(defaultEngine, art, rng, nil)
}

// RunPipelineWith executes the pipeline on a specific prover engine,
// recording per-phase spans — setup, solve, FFT levels, MSM windows,
// pairing — on tr, which can then be exported with tr.WriteChrome or
// aggregated with tr.Totals. A nil tr runs untraced.
func RunPipelineWith(eng *engine.Engine, art *Artifact, rng io.Reader, tr *obs.Trace) (*Pipeline, error) {
	pl := &Pipeline{Artifact: art}
	pl.Metrics.Name = art.Name
	pl.Metrics.NbConstraints = art.System.NbConstraints()
	pl.Metrics.NbPublic = art.System.NbPublic - 1
	pl.Metrics.NbPrivate = art.System.NbPrivate()
	pl.Metrics.Slots = art.Slots()

	req := art.Request(rng)
	var ctx context.Context
	if tr != nil {
		ctx = obs.ContextWithTrace(context.Background(), tr)
		req.Ctx = ctx
	}
	res, err := eng.Prove(req)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pl.Keys = res.Keys
	pl.VK = res.Keys.VK
	pl.Proof = res.Proof
	pl.Metrics.SetupTime = res.SetupTime
	pl.Metrics.SetupCached = res.CacheHit
	pl.Metrics.SolveTime = res.SolveTime
	pl.Metrics.ProveTime = res.ProveTime
	pl.Metrics.PKSize = res.Keys.PK.SizeBytes()
	pl.Metrics.VKSize = pl.VK.SizeBytes()
	pl.Metrics.ProofSize = res.Proof.PayloadSize()
	pl.Metrics.Residency = res.Keys.Plan.Residency

	start := time.Now()
	if err := eng.Verify(ctx, pl.VK, []*groth16.Proof{pl.Proof}, [][]fr.Element{res.PublicInputs}); err != nil {
		return nil, fmt.Errorf("core: verify: %w", err)
	}
	pl.Metrics.VerifyTime = time.Since(start)
	return pl, nil
}
