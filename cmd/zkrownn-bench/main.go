// Command zkrownn-bench regenerates the paper's evaluation artifacts:
//
//	Table I  — per-circuit zkSNARK metrics (#constraints, setup/prove/
//	           verify runtimes, key and proof sizes) for every individual
//	           circuit and both end-to-end extraction circuits.
//	Table II — the DNN benchmark architectures.
//
// Absolute runtimes depend on the host (the paper used a 64-core
// AMD 3990X); the shapes — constant 128 B proofs, millisecond verification,
// VK growing with the public inputs, prover/setup dominating — reproduce
// at any scale. Three scales are provided:
//
//	-scale tiny    seconds-fast smoke sizes (CI)
//	-scale default paper shapes at reduced dimensions (minutes)
//	-scale paper   the paper's exact dimensions (hours on small hosts,
//	               heavy memory: the MLP circuit exceeds 2M constraints)
//
// Use -row to run a single row and -table2 to print the architectures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/core"
	"zkrownn/internal/engine"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/groth16"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
)

type rowSpec struct {
	name  string
	build func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error)
}

type sizes struct {
	matN     int // MatMult: N×N
	convIn   int // Conv3D: convIn×convIn×3
	convOut  int
	vecN     int // 1-D ops
	avgN     int // Average2D: N×N
	sigN     int
	mlpIn    int
	mlpHid   int
	bits     int
	triggers int
	cnnIn    int
	cnnOut   int
}

func scaleSizes(scale string) (sizes, error) {
	switch scale {
	case "tiny":
		return sizes{
			matN: 8, convIn: 8, convOut: 4, vecN: 16, avgN: 8, sigN: 8,
			mlpIn: 32, mlpHid: 16, bits: 8, triggers: 2, cnnIn: 8, cnnOut: 4,
		}, nil
	case "default":
		return sizes{
			matN: 32, convIn: 16, convOut: 8, vecN: 128, avgN: 32, sigN: 32,
			mlpIn: 196, mlpHid: 64, bits: 32, triggers: 2, cnnIn: 16, cnnOut: 8,
		}, nil
	case "paper":
		// Table I: 128×128 2-D ops, length-128 1-D ops, 32×32×3 conv with
		// 32 channels / 3×3 / stride 2; MLP 784-512; CNN per Table II.
		return sizes{
			matN: 128, convIn: 32, convOut: 32, vecN: 128, avgN: 128, sigN: 128,
			mlpIn: 784, mlpHid: 512, bits: 32, triggers: 4, cnnIn: 32, cnnOut: 32,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (tiny|default|paper)", scale)
}

func main() {
	var (
		scale     = flag.String("scale", "default", "benchmark scale: tiny, default, or paper")
		row       = flag.String("row", "", `comma-separated Table I rows to run (matmult, conv3d, relu, average2d, sigmoid, threshold, ber, mnist-mlp, cifar10-cnn, batched-extraction-k1, batched-extraction-k4, aggregate-n16, aggregate-n256; paper scale adds paper-mlp-1m); empty runs all`)
		compareTo = flag.String("compare", "", "print per-row prove/setup/RSS deltas of this run against a previous report (e.g. the committed BENCH_groth16.json)")
		table2    = flag.Bool("table2", false, "print Table II (benchmark architectures) and exit")
		seed      = flag.Int64("seed", 1, "deterministic workload seed")
		fracBits  = flag.Int("frac-bits", 16, "fixed-point fraction bits")
		magBits   = flag.Int("mag-bits", 44, "fixed-point magnitude bound bits (range-check width)")
		triggers  = flag.Int("triggers", 0, "override the trigger-set size of the end-to-end rows")
		repeat    = flag.Int("repeat", 1, "run each row this many times; repeats reuse keys via the engine's digest cache")
		jsonOut   = flag.String("json", "BENCH_groth16.json", `write machine-readable per-row metrics to this file ("" disables)`)
		keyCache  = flag.String("keycache", "", "key-cache directory shared across bench invocations")
		procs     = flag.String("procs", "", `comma-separated GOMAXPROCS values to run the whole table at (e.g. "1,4"); empty keeps the ambient setting`)
		memBudget = flag.Int64("mem-budget", 0, "engine memory budget in bytes: selects each row's residency tier (raw proving key over it: key streamed from disk; CSR + witness over it too: fully out-of-core; 0 keeps everything resident, 1 forces out-of-core)")
		phases    = flag.Bool("phases", false, "trace each run and record per-phase prover timings (phase_ms) in the JSON report")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the last sampled run to this file (implies per-run tracing)")
	)
	flag.Parse()

	procsList, err := parseProcs(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *table2 {
		printTableII()
		return
	}

	sz, err := scaleSizes(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *triggers > 0 {
		sz.triggers = *triggers
	}
	p := fixpoint.Params{FracBits: *fracBits, MagBits: *magBits}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rows := []rowSpec{
		{"matmult", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.MatMultCircuit(p, sz.matN, rng)
		}},
		{"conv3d", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.Conv3DCircuit(p, gadgets.Conv3DShape{
				InC: 3, InH: sz.convIn, InW: sz.convIn, OutC: sz.convOut, K: 3, S: 2,
			}, rng)
		}},
		{"relu", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.ReLUCircuit(p, sz.vecN, rng)
		}},
		{"average2d", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.Average2DCircuit(p, sz.avgN, rng)
		}},
		{"sigmoid", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.SigmoidCircuit(p, sz.sigN, rng)
		}},
		{"threshold", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.HardThresholdingCircuit(p, sz.vecN, rng)
		}},
		{"ber", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.BERCircuit(p, sz.vecN, 2, rng)
		}},
		{"mnist-mlp", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.BenchMLPExtractionCircuit(p, sz.mlpIn, sz.mlpHid, sz.bits, sz.triggers, rng)
		}},
		{"cifar10-cnn", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.BenchCNNExtractionCircuit(p, gadgets.Conv3DShape{
				InC: 3, InH: sz.cnnIn, InW: sz.cnnIn, OutC: sz.cnnOut, K: 3, S: 2,
			}, sz.bits, sz.triggers, rng)
		}},
		// Batched multi-claim rows: one proof carrying K ownership claims
		// over the MNIST-MLP architecture. prove_per_claim_seconds is the
		// amortization headline — the k=1 row is the in-family baseline.
		{"batched-extraction-k1", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.BenchBatchedMLPExtractionCircuit(p, sz.mlpIn, sz.mlpHid, sz.bits, sz.triggers, 1, rng)
		}},
		{"batched-extraction-k4", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			return core.BenchBatchedMLPExtractionCircuit(p, sz.mlpIn, sz.mlpHid, sz.bits, sz.triggers, 4, rng)
		}},
	}
	if *scale == "paper" {
		// The paper-tier headline: a 1024×1024 dense layer, so the
		// extraction circuit binds 1,048,576 suspect-model weights
		// (≈5.5M constraints, ~750 MiB raw proving key). One trigger
		// keeps the forward-pass share small; the weight extraction
		// dominates. Run it alone with -row paper-mlp-1m under an
		// explicit -mem-budget so the whole pipeline stays out-of-core.
		rows = append(rows, rowSpec{"paper-mlp-1m", func(p fixpoint.Params, rng *rand.Rand) (*core.Artifact, error) {
			art, err := core.BenchMLPExtractionCircuit(p, 1024, 1024, sz.bits, 1, rng)
			if err != nil {
				return nil, err
			}
			art.Name = "paper-mlp-1m"
			return art, nil
		}})
	}

	rowFilter, err := parseRowFilter(*row, rows, "aggregate-n16", "aggregate-n256")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// -repeat runs of one row are adjacent, so a 2-entry cache serves
	// every repeat while keeping at most two (potentially huge) proving
	// keys resident during a full-table run. A -procs sweep revisits
	// every row once per setting, so it needs the whole table resident:
	// only the first pass then pays trusted setup and the sweep compares
	// prove/verify times against identical keys.
	cacheEntries := 2
	if len(procsList) > 1 {
		cacheEntries = len(rows)
	}
	eng := engine.New(engine.Options{
		CacheDir:     *keyCache,
		CacheEntries: cacheEntries,
		MemoryBudget: *memBudget,
	})
	defer eng.Close()
	report := benchReport{
		Scale:      *scale,
		FracBits:   *fracBits,
		GoMaxProcs: procsList[0],
		Streamed:   *memBudget > 0,
		Rows:       []benchRecord{},
	}
	// lastTrace keeps the most recent run's span timeline for -trace; each
	// run records into a fresh trace so phase_ms stays per-run.
	var lastTrace *obs.Trace
	for _, np := range procsList {
		runtime.GOMAXPROCS(np)
		fmt.Printf("ZKROWNN Table I reproduction — scale=%s, fixed-point f=%d, GOMAXPROCS=%d\n",
			*scale, *fracBits, runtime.GOMAXPROCS(0))
		fmt.Println(core.Header())
		fmt.Println(strings.Repeat("-", 112))
		for _, spec := range rows {
			if rowFilter != nil && !rowFilter[strings.ToLower(spec.name)] {
				continue
			}
			rng := rand.New(rand.NewSource(*seed))
			// Compile once per row; every repeat reuses the compiled
			// system and re-derives its witness with the recorded solver
			// program (solve_ms), so the JSON records both halves of the
			// compile-once / solve-many split.
			compileStart := time.Now()
			art, err := spec.build(p, rng)
			compileTime := time.Since(compileStart)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: build: %v\n", spec.name, err)
				os.Exit(1)
			}
			pkRaw, err := groth16.RawPKSizeBytes(art.System)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: raw key size: %v\n", spec.name, err)
				os.Exit(1)
			}
			csrRaw := r1cs.CSRRawSizeBytes(art.System)
			// The pipeline re-solves from the recorded solver program;
			// the builder's eager witness would only pad peak RSS
			// (NbWires×32 bytes held across every sampled repeat).
			art.Witness = nil
			for r := 0; r < *repeat; r++ {
				// In streamed mode the disk tier is the authoritative key
				// store, so evicting the memory tier before sampling costs
				// only a re-index of the spilled key — and stops an earlier
				// row's retained compiled system from padding this row's
				// peak. (In-memory mode keeps the cache: without a disk
				// tier, eviction would mean re-running trusted setup.)
				if *memBudget > 0 {
					eng.DropMemoryCache()
				}
				// Return freed pages to the OS so each run's peak-RSS
				// sample reflects its own allocations, not a previous
				// row's high-water mark the runtime is still holding.
				debug.FreeOSMemory()
				var tr *obs.Trace
				if *phases || *traceOut != "" {
					tr = obs.NewTrace()
				}
				sampler := startRSSSampler()
				pl, err := core.RunPipelineWith(eng, art, rng, tr)
				peakRSS := sampler.Stop()
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: pipeline: %v\n", spec.name, err)
					os.Exit(1)
				}
				pl.Metrics.CompileTime = compileTime
				fmt.Println(pl.Metrics.String())
				rec := recordOf(&pl.Metrics)
				rec.Scale = *scale
				rec.GoMaxProcs = runtime.GOMAXPROCS(0)
				rec.PKRawBytes = pkRaw
				rec.CSRRawBytes = csrRaw
				rec.PeakRSSBytes = peakRSS
				rec.Residency = pl.Metrics.Residency.String()
				rec.Streamed = pl.Metrics.Residency != engine.Resident
				if tr != nil {
					rec.PhaseMS = phaseMS(tr)
					lastTrace = tr
				}
				report.Rows = append(report.Rows, rec)
				// After a fully out-of-core first repeat the engine's disk
				// tier holds the CSR section file, and later repeats only
				// solve and stream — so release this process's resident CSR
				// arrays (keeping the solver tape) and let the steady-state
				// repeats measure the prover's true bounded footprint.
				if r == 0 && *repeat > 1 && !art.System.Stripped() && pl.Metrics.Residency == engine.OutOfCore {
					art.System = art.System.StripForSolve()
				}
			}
		}
	}

	// Registry-scale aggregation rows: N proofs of the BER circuit
	// folded into one O(log N) SnarkPack-style artifact. prove_seconds
	// records the fold (aggregation + the engine's self-check) and
	// verify_per_proof_seconds the amortized aggregate verification; the
	// headline is verify_per_proof_seconds dropping below the same
	// circuit's single-proof verify_seconds as N grows.
	for _, n := range []int{16, 256} {
		name := fmt.Sprintf("aggregate-n%d", n)
		if rowFilter != nil && !rowFilter[name] {
			continue
		}
		sampler := startRSSSampler()
		rec, err := runAggregateRow(eng, p, sz, n, *seed)
		rec.PeakRSSBytes = sampler.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		rec.Name = name
		rec.Scale = *scale
		rec.GoMaxProcs = runtime.GOMAXPROCS(0)
		fmt.Printf("%-24s fold %6.3fs  aggregate verify %.4fs over %3d proofs (%.5fs/proof vs %.5fs single, artifact %d B)\n",
			name, rec.ProveSeconds, rec.VerifyPerProofSeconds*float64(n), n,
			rec.VerifyPerProofSeconds, rec.VerifySeconds, rec.ProofBytes)
		report.Rows = append(report.Rows, rec)
	}

	st := eng.Stats()
	fmt.Printf("\nengine: %d setups (%.2fs), %d cache hits (%d mem, %d disk), %d proofs (%.2fs, %d streamed, %d spilled), %d verifies (%.3fs)\n",
		st.Setups, st.SetupTime.Seconds(), st.MemHits+st.DiskHits, st.MemHits, st.DiskHits,
		st.Proves, st.ProveTime.Seconds(), st.StreamProves, st.SpillProves, st.Verifies, st.VerifyTime.Seconds())

	if *compareTo != "" {
		if err := printComparison(*compareTo, &report); err != nil {
			fmt.Fprintf(os.Stderr, "-compare %s: %v\n", *compareTo, err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, &report, rowFilter != nil); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *jsonOut)
	}
	if *traceOut != "" {
		if lastTrace == nil {
			fmt.Fprintf(os.Stderr, "-trace: no run sampled, nothing to write\n")
			os.Exit(1)
		}
		if err := writeTrace(*traceOut, lastTrace); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}
}

// phaseMS flattens a run's span totals into the phase_ms JSON map,
// keeping only phase-level spans (at most one '/' in the name — e.g.
// engine/prove, msm/A, quotient/ifft-a) and dropping the per-window,
// per-level, and per-chunk task spans, whose lane-parallel durations sum
// to CPU time rather than wall time.
func phaseMS(tr *obs.Trace) map[string]float64 {
	out := make(map[string]float64)
	for name, d := range tr.Totals() {
		if strings.Count(name, "/") > 1 {
			continue
		}
		out[name] = float64(d.Microseconds()) / 1e3
	}
	return out
}

func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseRowFilter parses the -row flag into a lowercase name set, nil
// when the flag is empty (run everything). Unknown names are an error —
// a typo would otherwise silently benchmark nothing.
func parseRowFilter(s string, rows []rowSpec, extra ...string) (map[string]bool, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[string]bool, len(rows)+len(extra))
	for _, r := range rows {
		known[strings.ToLower(r.name)] = true
	}
	for _, name := range extra {
		known[strings.ToLower(name)] = true
	}
	out := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("-row: unknown row %q (paper-mlp-1m needs -scale paper)", name)
		}
		out[name] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-row: no row names in %q", s)
	}
	return out, nil
}

// parseProcs parses the -procs flag into the GOMAXPROCS sweep; an empty
// flag keeps the ambient setting as a single run.
func parseProcs(s string) ([]int, error) {
	if s == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-procs: %q is not a positive integer", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// benchReport is the machine-readable Table I artifact tracked across
// PRs (BENCH_groth16.json). The top-level gomaxprocs records the first
// run of a -procs sweep; each row carries the setting it ran at.
type benchReport struct {
	Scale      string `json:"scale"`
	FracBits   int    `json:"frac_bits"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Streamed records whether the run had an engine memory budget
	// (rows whose raw proving key exceeded it proved out-of-core).
	Streamed bool          `json:"streamed"`
	Rows     []benchRecord `json:"rows"`
}

type benchRecord struct {
	Name string `json:"name"`
	// Scale is the -scale tier this row ran at. Rows from different
	// tiers coexist in one report: a -row–filtered run merges into the
	// existing file by (name, scale, gomaxprocs) instead of replacing
	// it, so the paper-tier rows survive a default-tier regeneration.
	Scale       string `json:"scale,omitempty"`
	Constraints int    `json:"constraints"`
	NbPublic    int    `json:"nb_public"`
	NbPrivate   int    `json:"nb_private"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	// CompileMS is the one-time circuit-synthesis cost (builder →
	// CompiledSystem) of the row, paid once per architecture; SolveMS is
	// the per-proof witness generation (solver-program replay). The
	// compile-once / solve-many split shows as solve_ms ≪ compile_ms.
	CompileMS     float64 `json:"compile_ms"`
	SolveMS       float64 `json:"solve_ms"`
	SetupSeconds  float64 `json:"setup_seconds"`
	SetupCached   bool    `json:"setup_cached"`
	ProveSeconds  float64 `json:"prove_seconds"`
	VerifySeconds float64 `json:"verify_seconds"`
	// BundleSlots is the row's ownership-claim count (K for the
	// batched-extraction rows, 1 elsewhere); ProvePerClaimSeconds is
	// prove_seconds / bundle_slots — the amortized cost one suspect-model
	// claim pays inside a batch.
	BundleSlots          int     `json:"bundle_slots"`
	ProvePerClaimSeconds float64 `json:"prove_per_claim_seconds"`
	// VerifyPerProofSeconds (aggregate-n* rows) is the amortized cost of
	// checking one member through the O(log N) aggregate: aggregate
	// verification time / N. The headline is this dropping below the
	// same circuit's single-proof verify_seconds.
	VerifyPerProofSeconds float64 `json:"verify_per_proof_seconds,omitempty"`
	// PKBytes is the key's compressed wire encoding (Table I's PK column),
	// whichever tier the row ran in.
	PKBytes    int64 `json:"pk_bytes"`
	VKBytes    int64 `json:"vk_bytes"`
	ProofBytes int   `json:"proof_bytes"`
	// PKRawBytes is the raw uncompressed proving-key encoding size —
	// the prover's full working set if it held the key in RAM, and the
	// baseline peak_rss_bytes is judged against in streamed mode.
	PKRawBytes int64 `json:"pk_raw_bytes"`
	// CSRRawBytes is the section-framed on-disk encoding size of the
	// row's compiled constraint system (the CSR file the out-of-core
	// prover streams row windows from). Together with pk_raw_bytes it
	// is the resident footprint a fully in-memory prover would carry.
	CSRRawBytes int64 `json:"csr_raw_bytes"`
	// PeakRSSBytes is the process's peak resident-set size sampled over
	// this row's setup+prove+verify run (0 where /proc is unavailable).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// Residency is the tier the engine's plan put the row in ("resident",
	// "key-streamed", "out-of-core"); Streamed is Residency != "resident".
	Residency string `json:"residency,omitempty"`
	Streamed  bool   `json:"streamed"`
	// FieldBackend names the scalar-field multiplication backend the row
	// ran on ("adx" for the amd64 assembly kernels, "generic" for the
	// portable core) — numbers are only comparable across runs with the
	// same backend.
	FieldBackend string `json:"field_backend"`
	// CurveBackend names the arithmetic under the G1 batch-affine flush
	// ("ifma" for the AVX-512 IFMA lanes, else "adx" or "generic"): MSM
	// and setup times from CPUs with and without IFMA differ by it.
	CurveBackend string `json:"curve_backend"`
	// PhaseMS breaks the row's wall time down by prover phase (-phases):
	// span-name → milliseconds, e.g. engine/solve, keys/setup, msm/A,
	// quotient/ifft-a, verify/pairing. Nested phases overlap their
	// parents (msm/A runs inside engine/prove), so entries do not sum to
	// a total.
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
}

// runAggregateRow proves one BER-circuit proof, duplicates it N ways
// (aggregation is indifferent to duplicates — each slot is a full
// member), folds the set on the engine, and measures the three costs a
// registry cares about: the fold, the single-proof baseline check, and
// the aggregate check. The aggregation SRS is warmed with an untimed
// fold so prove_seconds measures the fold itself, not the one-time
// commitment-key build.
func runAggregateRow(eng *engine.Engine, p fixpoint.Params, sz sizes, n int, seed int64) (benchRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	art, err := core.BERCircuit(p, sz.vecN, 2, rng)
	if err != nil {
		return benchRecord{}, err
	}
	res, err := eng.Prove(art.Request(nil))
	if err != nil {
		return benchRecord{}, err
	}
	vk := res.Keys.VK
	proofs := make([]*groth16.Proof, n)
	publics := make([][]fr.Element, n)
	for i := range proofs {
		proofs[i] = res.Proof
		publics[i] = res.PublicInputs
	}

	start := time.Now()
	if err := groth16.Verify(vk, res.Proof, res.PublicInputs); err != nil {
		return benchRecord{}, err
	}
	single := time.Since(start)

	if _, _, err := eng.AggregateMany(vk, proofs, publics); err != nil {
		return benchRecord{}, err
	}
	start = time.Now()
	agg, svk, err := eng.AggregateMany(vk, proofs, publics)
	if err != nil {
		return benchRecord{}, err
	}
	fold := time.Since(start)

	start = time.Now()
	if err := groth16.VerifyAggregate(svk, vk, agg, publics); err != nil {
		return benchRecord{}, err
	}
	aggVerify := time.Since(start)

	return benchRecord{
		Constraints:           art.System.NbConstraints(),
		NbPublic:              art.System.NbPublic - 1,
		SetupCached:           res.CacheHit,
		SetupSeconds:          res.SetupTime.Seconds(),
		BundleSlots:           1,
		ProveSeconds:          fold.Seconds(),
		ProvePerClaimSeconds:  fold.Seconds(),
		VerifySeconds:         single.Seconds(),
		VerifyPerProofSeconds: aggVerify.Seconds() / float64(n),
		ProofBytes:            int(agg.SizeBytes()),
		VKBytes:               vk.SizeBytes(),
		FieldBackend:          fr.MulBackend(),
		CurveBackend:          curve.Backend(),
	}, nil
}

func recordOf(m *core.Metrics) benchRecord {
	slots := m.Slots
	if slots < 1 {
		slots = 1
	}
	return benchRecord{
		Name:                 m.Name,
		Constraints:          m.NbConstraints,
		NbPublic:             m.NbPublic,
		NbPrivate:            m.NbPrivate,
		CompileMS:            float64(m.CompileTime.Microseconds()) / 1e3,
		SolveMS:              float64(m.SolveTime.Microseconds()) / 1e3,
		SetupSeconds:         m.SetupTime.Seconds(),
		SetupCached:          m.SetupCached,
		ProveSeconds:         m.ProveTime.Seconds(),
		VerifySeconds:        m.VerifyTime.Seconds(),
		BundleSlots:          slots,
		ProvePerClaimSeconds: m.ProveTime.Seconds() / float64(slots),
		PKBytes:              m.PKSize,
		VKBytes:              m.VKSize,
		ProofBytes:           m.ProofSize,
		FieldBackend:         fr.MulBackend(),
		CurveBackend:         curve.Backend(),
	}
}

// rssSampler polls the process resident-set size on a short tick while
// one benchmark row runs, tracking the high-water mark. Sampling reads
// /proc/self/statm (resident pages × page size) — the streamed prover
// deliberately reads key files with pread rather than mmap so that key
// bytes flow through the kernel page cache without counting against the
// process RSS this sampler measures.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if r := currentRSS(); r > s.peak.Load() {
				s.peak.Store(r)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop halts sampling (taking one final sample) and returns the peak
// observed RSS in bytes.
func (s *rssSampler) Stop() int64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// currentRSS returns the resident-set size in bytes, or 0 on platforms
// without /proc.
func currentRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func readReport(path string) (*benchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// rowScale resolves a row's scale tier, falling back to the report
// header for rows written before the per-row field existed.
func rowScale(rep *benchReport, r *benchRecord) string {
	if r.Scale != "" {
		return r.Scale
	}
	return rep.Scale
}

func mergeKey(rep *benchReport, r *benchRecord) string {
	return fmt.Sprintf("%s|%s|%d", strings.ToLower(r.Name), rowScale(rep, r), r.GoMaxProcs)
}

// writeReport writes the report to path. A full-table run replaces the
// file wholesale; a -row–filtered run (merge) splices its rows into the
// existing report by (name, scale, gomaxprocs) — every repeat of a
// matched key is replaced in place, unmatched existing rows (other
// tiers, other rows) survive, and brand-new keys append at the end. The
// header keeps the existing full run's metadata in merge mode.
func writeReport(path string, rep *benchReport, merge bool) error {
	out := rep
	if merge {
		if old, err := readReport(path); err == nil {
			out = mergeReports(old, rep)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("merging into existing report: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mergeReports(old, fresh *benchReport) *benchReport {
	byKey := make(map[string][]benchRecord)
	var order []string
	for i := range fresh.Rows {
		k := mergeKey(fresh, &fresh.Rows[i])
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], fresh.Rows[i])
	}
	merged := *old
	merged.Rows = nil
	spliced := make(map[string]bool)
	for i := range old.Rows {
		k := mergeKey(old, &old.Rows[i])
		rows, replace := byKey[k]
		if !replace {
			merged.Rows = append(merged.Rows, old.Rows[i])
			continue
		}
		if !spliced[k] {
			spliced[k] = true
			merged.Rows = append(merged.Rows, rows...)
		}
	}
	for _, k := range order {
		if !spliced[k] {
			merged.Rows = append(merged.Rows, byKey[k]...)
		}
	}
	return &merged
}

// rowStats aggregates one merge key's repeats for comparison: fastest
// prove and verify, the uncached setup if any repeat paid one, and the
// lowest peak RSS (later repeats skip setup, so their peak reflects the
// steady-state prover footprint).
type rowStats struct {
	name    string
	scale   string
	procs   int
	prove   float64
	setup   float64
	peakRSS int64
}

func collectStats(rep *benchReport) (map[string]*rowStats, []string) {
	stats := make(map[string]*rowStats)
	var order []string
	for i := range rep.Rows {
		r := &rep.Rows[i]
		k := fmt.Sprintf("%s|%d", strings.ToLower(r.Name), r.GoMaxProcs)
		s, ok := stats[k]
		if !ok {
			s = &rowStats{name: r.Name, scale: rowScale(rep, r), procs: r.GoMaxProcs,
				prove: r.ProveSeconds, peakRSS: r.PeakRSSBytes}
			stats[k] = s
			order = append(order, k)
		}
		if r.ProveSeconds < s.prove {
			s.prove = r.ProveSeconds
		}
		if !r.SetupCached && (s.setup == 0 || r.SetupSeconds < s.setup) {
			s.setup = r.SetupSeconds
		}
		if r.PeakRSSBytes > 0 && (s.peakRSS == 0 || r.PeakRSSBytes < s.peakRSS) {
			s.peakRSS = r.PeakRSSBytes
		}
	}
	return stats, order
}

// printComparison prints per-row prove/setup/peak-RSS deltas of this
// run against a previous report, matching rows by (name, gomaxprocs).
// Scale or fixed-point mismatches don't suppress the table — they are
// loudly warned instead, since cross-tier deltas are not regressions.
func printComparison(oldPath string, fresh *benchReport) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	fmt.Printf("\ncomparison vs %s\n", oldPath)
	if old.Scale != fresh.Scale {
		fmt.Printf("  warning: scale mismatch (%s vs this run's %s) — deltas below compare different circuit sizes\n",
			old.Scale, fresh.Scale)
	}
	if old.FracBits != fresh.FracBits {
		fmt.Printf("  warning: frac_bits mismatch (%d vs %d)\n", old.FracBits, fresh.FracBits)
	}
	if old.Streamed != fresh.Streamed {
		fmt.Printf("  warning: streamed mismatch (%v vs %v) — memory numbers are not comparable\n",
			old.Streamed, fresh.Streamed)
	}
	oldStats, oldOrder := collectStats(old)
	newStats, newOrder := collectStats(fresh)

	delta := func(o, n float64) string {
		if o == 0 {
			return "     -"
		}
		return fmt.Sprintf("%+5.1f%%", 100*(n-o)/o)
	}
	matched := false
	for _, k := range newOrder {
		n := newStats[k]
		o, ok := oldStats[k]
		if !ok {
			continue
		}
		if !matched {
			matched = true
			fmt.Printf("  %-24s %4s  %21s  %21s  %23s\n",
				"row", "np", "prove(s) old->new", "setup(s) old->new", "peakRSS(MiB) old->new")
		}
		if o.scale != n.scale {
			fmt.Printf("  warning: %s ran at scale %s before, %s now\n", n.name, o.scale, n.scale)
		}
		fmt.Printf("  %-24s %4d  %6.2f->%-6.2f %6s  %6.2f->%-6.2f %6s  %7d->%-7d %6s\n",
			n.name, n.procs,
			o.prove, n.prove, delta(o.prove, n.prove),
			o.setup, n.setup, delta(o.setup, n.setup),
			o.peakRSS>>20, n.peakRSS>>20, delta(float64(o.peakRSS), float64(n.peakRSS)))
	}
	if !matched {
		fmt.Println("  no rows in common (by name and gomaxprocs)")
	}
	for _, k := range newOrder {
		if _, ok := oldStats[k]; !ok {
			fmt.Printf("  new row (not in %s): %s @ gomaxprocs=%d\n", oldPath, newStats[k].name, newStats[k].procs)
		}
	}
	// Baseline rows absent from this run are not regressions, but
	// silently dropping them would let a sweep that quietly stopped
	// covering a tier read as "all clear" — name each one.
	for _, k := range oldOrder {
		if _, ok := newStats[k]; !ok {
			fmt.Printf("  baseline row not re-run (in %s only): %s @ gomaxprocs=%d\n",
				oldPath, oldStats[k].name, oldStats[k].procs)
		}
	}
	return nil
}

func printTableII() {
	fmt.Println("Table II — DNN benchmark architectures (paper notation)")
	fmt.Println()
	fmt.Println("Dataset   Architecture")
	fmt.Println("MNIST     784 - FC(512) - FC(512) - FC(10)")
	fmt.Println("CIFAR10   3x32x32 - C(32,3,2) - C(32,3,1) - MP(2,1)")
	fmt.Println("          C(64,3,1) - C(64,3,1) - MP(2,1) - FC(512) - FC(10)")
	fmt.Println()
	fmt.Println("Both models are constructed by internal/nn (NewMNISTMLP /")
	fmt.Println("NewCIFAR10CNN); the watermark is embedded after the first")
	fmt.Println("hidden layer, so the extraction circuits evaluate that prefix.")
}
