package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"zkrownn"
	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fp"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/groth16"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// The layer probes time single calls into each layer on real material:
// the compiled benchmark circuit, the proving key a trusted setup issued
// for it, a solved witness, a proof and its instance. They run in the
// traced pass of every workload, identically, so a per-layer number read
// beside any workload's end-to-end numbers comes from the same process.

// prober runs probes, records each call as a span and its median as a
// metric, and counts probe outputs that are wrong as failed ops.
type prober struct {
	cfg  *config
	rec  *recorder
	ph   *phase
	out  map[string]metric
	reps int // calls per probe (median of); heavy probes use fewer
	rng  *rand.Rand
	dir  string
	seq  int
}

// timeMS calls fn reps times and returns the median in milliseconds.
func (p *prober) timeMS(name string, reps int, fn func()) float64 {
	vs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		p.seq++
		sp := p.rec.begin("probe/"+name, p.seq, -1)
		t0 := time.Now()
		fn()
		vs = append(vs, ms(time.Since(t0)))
		p.rec.end(sp)
	}
	return median(vs)
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// probeMS is timeMS reported under its own name.
func (p *prober) probeMS(name string, reps int, fn func()) float64 {
	v := p.timeMS(name, reps, fn)
	p.set(name, v, "ms")
	return v
}

// check counts a probe whose output is wrong as a failed op.
func (p *prober) check(what string, err error) {
	if err != nil {
		err = fmt.Errorf("probe %s: %w", what, err)
	}
	p.ph.gate(err)
}

func (p *prober) scalars(n int) []fr.Element {
	out := make([]fr.Element, n)
	var buf [32]byte
	for i := range out {
		p.rng.Read(buf[:])
		out[i].SetBytes(buf[:])
	}
	return out
}

// runProbes executes the whole suite and fills p.out.
func (p *prober) runProbes() error {
	var err error
	if p.dir, err = os.MkdirTemp(p.cfg.tmpDir, "probes-*"); err != nil {
		return err
	}
	defer os.RemoveAll(p.dir)
	reps, heavy := p.reps, max(p.reps*3/5, 1)

	p.fields()

	// --- core / r1cs: compile, bind, solve ---
	in := newInputs(p.cfg.seed, p.cfg.shape())
	q, err := zkrownn.Quantize(in.model, zkrownn.DefaultFixedPoint)
	if err != nil {
		return err
	}
	var circuit *zkrownn.Circuit
	var digestMS []float64
	p.probeMS("core.compile_ms", heavy, func() {
		if c, cerr := zkrownn.BuildOwnershipCircuit(q, in.key, in.shape.bits); cerr != nil {
			err = cerr
		} else {
			circuit = c
		}
	})
	if err != nil {
		return err
	}
	// The digest is cached after its first call, so each sample needs a
	// freshly compiled system.
	for i := 0; i < heavy; i++ {
		c, err := zkrownn.BuildOwnershipCircuit(q, in.key, in.shape.bits)
		if err != nil {
			return err
		}
		digestMS = append(digestMS, p.timeMS("r1cs.digest_ms", 1, func() { c.System.Digest() }))
	}
	p.set("r1cs.digest_ms", median(digestMS), "ms")
	sys := circuit.System

	suspect, err := in.suspect()
	if err != nil {
		return err
	}
	var req zkrownn.ProveRequest
	p.probeMS("core.bind_ms", reps, func() { req, err = zkrownn.BindSuspectModel(circuit, suspect, nil) })
	if err != nil {
		return err
	}
	var witness []fr.Element
	p.probeMS("r1cs.solve_ms", reps, func() { witness, err = sys.Solve(req.Public, req.Secret) })
	if err != nil {
		return err
	}
	var satisfied bool
	p.probeMS("r1cs.is_satisfied_ms", reps, func() { satisfied, _ = sys.IsSatisfied(witness) })
	if !satisfied {
		p.check("r1cs.is_satisfied", errors.New("solved witness does not satisfy the system"))
	}
	p.probeMS("r1cs.solve_spilled_ms", heavy, func() {
		wf, werr := r1cs.NewWitnessFile(p.dir, sys.NbWires, 0)
		if werr != nil {
			err = werr
			return
		}
		defer wf.Close()
		err = sys.SolveSpilled(req.Public, req.Secret, wf, nil)
	})
	if err != nil {
		return err
	}
	csrPath := filepath.Join(p.dir, "probe.csr")
	p.probeMS("r1cs.csr_write_ms", heavy, func() { err = r1cs.WriteCompiledSystemFile(csrPath, sys) })
	if err != nil {
		return err
	}
	if st, serr := os.Stat(csrPath); serr == nil {
		p.set("r1cs.csr_bytes", float64(st.Size()), "count")
	} else {
		return serr
	}

	// --- groth16: setup, prove, verify ---
	var pk *groth16.ProvingKey
	var vk *groth16.VerifyingKey
	p.probeMS("groth16.setup_ms", 1, func() { pk, vk, err = groth16.Setup(sys, p.rng) })
	if err != nil {
		return err
	}
	raw, err := groth16.RawPKSizeBytes(sys)
	if err != nil {
		return err
	}
	p.set("groth16.pk_raw_bytes", float64(raw), "count")
	p.set("groth16.vk_bytes", float64(vk.SizeBytes()), "count")

	var proof *groth16.Proof
	proveMS := p.probeMS("groth16.prove_ms", reps, func() { proof, err = groth16.Prove(sys, pk, witness, p.rng) })
	if err != nil {
		return err
	}
	p.set("groth16.proof_bytes", float64(proof.PayloadSize()), "count")
	public := sys.PublicValues(witness)
	p.probeMS("groth16.verify_ms", reps, func() { err = groth16.Verify(vk, proof, public) })
	p.check("groth16.Verify", err)
	proofs8, publics8 := repeatProof(proof, public, 8)
	batch := p.timeMS("groth16.batch_verify8_ms_per_proof", heavy, func() { err = groth16.BatchVerify(vk, proofs8, publics8, p.rng) })
	p.check("groth16.BatchVerify", err)
	p.set("groth16.batch_verify8_ms_per_proof", batch/8, "ms")

	// Scaling: the same prove on one core.
	procs := runtime.GOMAXPROCS(1)
	procs1 := p.probeMS("groth16.prove_ms_procs1", heavy, func() { _, err = groth16.Prove(sys, pk, witness, p.rng) })
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	p.set("groth16.prove_parallel_eff", procs1/(float64(procs)*proveMS), "ratio")

	// --- curve: the prover's five MSMs on the real key and witness ---
	msm := p.probeMS("curve.msm_g1_a_ms", reps, func() { curve.MultiExpG1(pk.A, witness) })
	msm += p.probeMS("curve.msm_g1_b1_ms", reps, func() { curve.MultiExpG1(pk.B1, witness) })
	msm += p.probeMS("curve.msm_g2_b_ms", reps, func() { curve.MultiExpG2(pk.B2, witness) })
	msm += p.probeMS("curve.msm_g1_k_ms", reps, func() { curve.MultiExpG1(pk.K, witness[sys.NbPublic:]) })
	full := p.scalars(len(pk.Z))
	z := p.probeMS("curve.msm_g1_z_ms", reps, func() { curve.MultiExpG1(pk.Z, full) })
	msm += z
	p.set("curve.msm_g1_mpts_s", float64(len(pk.Z))/z/1e3, "Mpts/s")
	// Full-width G2 rate over the key's finite B2 points (wires that never
	// appear on a constraint's B side are the point at infinity).
	var b2 []curve.G2Affine
	for i := range pk.B2 {
		if !pk.B2[i].IsInfinity() {
			b2 = append(b2, pk.B2[i])
		}
	}
	g2 := p.timeMS("curve.msm_g2_mpts_s", heavy, func() { curve.MultiExpG2(b2, full[:len(b2)]) })
	p.set("curve.msm_g2_mpts_s", float64(len(b2))/g2/1e3, "Mpts/s")
	p.probeMS("curve.msm_ic_ms", reps, func() { curve.MultiExpG1(vk.IC[1:], public) })

	rawA := filepath.Join(p.dir, "A.raw")
	if err := writeRawG1(rawA, pk.A); err != nil {
		return err
	}
	f, err := os.Open(rawA)
	if err != nil {
		return err
	}
	defer f.Close()
	var streamed curve.G1Jac
	p.probeMS("curve.msm_stream_g1_ms", heavy, func() {
		streamed, err = curve.MultiExpG1StreamScalars(curve.NewG1RawSource(f, 0), witness, curve.StreamWindowSize(len(pk.A), 0), 0)
	})
	if err != nil {
		return err
	}
	if inMem := curve.MultiExpG1(pk.A, witness); !streamed.Equal(&inMem) {
		p.check("curve.MultiExpG1StreamScalars", errors.New("streamed MSM differs from the in-memory MSM"))
	}

	// Setup's kernel: one fixed-base multiplication per wire.
	ks := p.scalars(sys.NbWires)
	g1, g2gen := curve.G1Generator(), curve.G2Generator()
	t1, t2 := curve.NewG1FixedBaseTable(&g1), curve.NewG2FixedBaseTable(&g2gen)
	p.probeMS("curve.fixed_base_mulbatch_g1_ms", heavy, func() { t1.MulBatch(ks) })
	p.probeMS("curve.fixed_base_mulbatch_g2_ms", heavy, func() { t2.MulBatch(ks) })

	// --- pairing ---
	var ml = pairing.MillerLoop(&proof.Ar, &proof.Bs)
	p.probeMS("pairing.miller_ms", reps, func() { ml = pairing.MillerLoop(&proof.Ar, &proof.Bs) })
	p.probeMS("pairing.final_exp_ms", reps, func() { pairing.FinalExponentiation(&ml) })
	ps := []*curve.G1Affine{&proof.Ar, &vk.IC[0], &proof.Krs}
	qs := []*curve.G2Affine{&proof.Bs, &vk.GammaG2, &vk.DeltaG2}
	p.probeMS("pairing.check3_ms", reps, func() { pairing.PairingCheck(ps, qs) })

	// --- poly: the quotient's transforms at the key's domain ---
	ffts, err := p.transforms(pk.DomainSize)
	if err != nil {
		return err
	}
	// What Prove spends outside the kernels probed above: the satisfy
	// walk is probed too, so the rest is row evaluation, pointwise
	// products, recoding shared across A/B1/B2 (the probes above each
	// recode, which can push this slightly negative) and glue.
	p.set("groth16.prove_unattributed_ms", proveMS-msm-ffts-p.out["r1cs.is_satisfied_ms"].Value, "ms")

	// --- engine: cache tiers and per-prove overhead ---
	eng := zkrownn.NewEngine(zkrownn.EngineOptions{CacheDir: filepath.Join(p.dir, "keys"), Rand: newLockedRand(p.cfg.seed)})
	defer eng.Close()
	if _, err := eng.Prove(req); err != nil { // runs and persists the trusted setup
		return err
	}
	var overhead, memHit, diskLoad []float64
	for i := 0; i < reps; i++ {
		var res *zkrownn.ProveResult
		wall := p.timeMS("engine.prove", 1, func() { res, err = eng.Prove(req) })
		if err != nil {
			return err
		}
		overhead = append(overhead, wall-ms(res.SolveTime)-ms(res.ProveTime))
		memHit = append(memHit, ms(res.SetupTime))
	}
	for i := 0; i < heavy; i++ {
		eng.DropMemoryCache()
		res, err := eng.Prove(req)
		if err != nil {
			return err
		}
		diskLoad = append(diskLoad, ms(res.SetupTime))
	}
	p.set("engine.prove_overhead_ms", median(overhead), "ms")
	p.set("engine.keys_memhit_ms", median(memHit), "ms")
	p.set("engine.keys_diskload_ms", median(diskLoad), "ms")
	st := eng.Stats()
	p.check("engine cache tiers", errors.Join(
		expect("probe engine.setups", st.Setups, 1),
		expect("probe engine.mem_hits", st.MemHits, uint64(reps)),
		expect("probe engine.disk_hits", st.DiskHits, uint64(heavy))))

	return p.service(in, eng)
}

// fields calibrates the two field multiplications everything else is
// built from.
func (p *prober) fields() {
	const n = 1 << 20
	xs := p.scalars(2)
	a, b := xs[0], xs[1]
	v := p.timeMS("fr.mul_ns", p.reps, func() {
		for i := 0; i < n; i++ {
			a.Mul(&a, &b)
		}
	})
	p.set("fr.mul_ns", v*1e6/n, "ns")
	var x, y fp.Element
	x.SetUint64(p.rng.Uint64() | 1)
	y.SetUint64(p.rng.Uint64() | 1)
	v = p.timeMS("fp.mul_ns", p.reps, func() {
		for i := 0; i < n; i++ {
			x.Mul(&x, &y)
		}
	})
	p.set("fp.mul_ns", v*1e6/n, "ns")
	sink = a[0] ^ x[0]
}

// sink keeps the calibration loops' results live.
var sink uint64

// transforms times the domain transforms and returns the cost of the
// prover's quotient sequence.
func (p *prober) transforms(domainSize uint64) (float64, error) {
	d, err := poly.NewDomain(domainSize)
	if err != nil {
		return 0, err
	}
	n := int(domainSize)
	a, b, c := p.scalars(n), p.scalars(n), p.scalars(n)
	dst := make([]fr.Element, n)
	v := p.timeMS("fr.mulvec_melem_s", p.reps, func() { fr.MulVecInto(dst, a, b) })
	p.set("fr.mulvec_melem_s", float64(n)/v/1e3, "Melem/s")
	p.probeMS("poly.fft_ms", p.reps, func() { d.FFT(a) })
	p.probeMS("poly.ifft_ms", p.reps, func() { d.IFFT(a) })
	p.probeMS("poly.fft_coset_ms", p.reps, func() { d.FFTCoset(a) })
	ffts := p.probeMS("poly.quotient_ffts_ms", p.reps, func() {
		d.IFFT(a)
		d.IFFT(b)
		d.IFFT(c)
		d.FFTCoset(a)
		d.FFTCoset(b)
		d.FFTCoset(c)
		d.IFFTCoset(a)
	})
	vf, err := poly.CreateVecFile(p.dir, n)
	if err != nil {
		return 0, err
	}
	defer vf.Close()
	if err := vf.WriteAt(b, 0); err != nil {
		return 0, err
	}
	// A quarter-domain scratch, as the out-of-core quotient uses.
	buf := make([]fr.Element, max(n/4, 1))
	p.probeMS("poly.fft_file_ms", max(p.reps*3/5, 1), func() { err = d.FFTFile(vf, buf) })
	return ffts, err
}

// service probes the HTTP layer on a service that shares the probes'
// engine: sequential requests for the per-class overhead over a direct
// groth16.Verify, a fixed closed-loop load for latency under contention
// and the batcher's counters, and an aggregation of the committed pool.
func (p *prober) service(in *inputs, eng *zkrownn.Engine) error {
	vs, err := startVerifyService(p.cfg.tmpDir, in, 2, eng)
	if err != nil {
		return err
	}
	defer vs.close()
	ctx := context.Background()

	// Registration of the public model found its keys in the shared
	// engine, so what is left beyond compilation is the service's own:
	// JSON, quantization, persistence of the verifying key.
	p.set("service.register_overhead_ms", ms(vs.regWall[0])-p.out["core.compile_ms"].Value, "ms")
	var jobMS, jobOver, queued []float64
	for i, j := range vs.jobs {
		jobMS = append(jobMS, ms(vs.jobWall[i]))
		jobOver = append(jobOver, ms(vs.jobWall[i])-j.QueuedMS-j.SolveMS-j.ProveMS)
		queued = append(queued, j.QueuedMS)
	}
	p.set("service.prove_job_ms_p50", median(jobMS), "ms")
	p.set("service.prove_job_overhead_ms", median(jobOver), "ms")
	p.set("service.queue_wait_ms_p50", median(queued), "ms")

	// One caller, one request at a time: HTTP round trip against the
	// direct verification of the same proof.
	seq := 3 * p.reps
	for m, class := range []int{classPublic, classCommitted} {
		pp := vs.pools[m][0]
		direct := p.timeMS("groth16.Verify/"+className[class], p.reps, func() { err = groth16.Verify(vs.vks[m], pp.proof, pp.public) })
		p.check("direct verify "+className[class], err)
		var lat []float64
		before := vs.adminConn.reqBytes.Load()
		for i := 0; i < seq; i++ {
			s, err := vs.send(ctx, vs.admin, request{class: class, committedModel: m == 1}, -1, 0, nil)
			p.check("sequential verify "+className[class], err)
			lat = append(lat, ms(s.latency))
		}
		p.set("service.http_overhead_ms_"+className[class], median(lat)-direct, "ms")
		p.set("client.verify_req_bytes_"+className[class], float64(vs.adminConn.reqBytes.Load()-before)/float64(seq), "count")
	}

	// Closed-loop load, fixed request count.
	statsBefore, err := vs.admin.Stats(ctx)
	if err != nil {
		return err
	}
	requests := 60 * p.reps
	if p.cfg.smoke {
		requests = 40
	}
	loadPh := &phase{}
	if err := vs.load(p.cfg.procs, newSchedule(p.rng, requests, 2), loopCtl{maxOps: requests}, loadPh); err != nil {
		return err
	}
	p.ph.mu.Lock()
	p.ph.attempted += loadPh.attempted
	p.ph.failed += loadPh.failed
	p.ph.mu.Unlock()
	for _, class := range []int{classPublic, classCommitted} {
		lat := latenciesMS(loadPh.samples, func(s sample) bool { return s.class == class })
		_, tail := tailPercentile(lat)
		p.set("service.verify_"+className[class]+"_ms_p50", median(lat), "ms")
		p.set("service.verify_"+className[class]+"_ms_tail", tail, "ms")
	}
	statsAfter, err := vs.admin.Stats(ctx)
	if err != nil {
		return err
	}
	a, b := statsAfter.Service, statsBefore.Service
	windows := float64(a.VerifyRequests-b.VerifyRequests) - float64(a.VerifyBatchedRequests-b.VerifyBatchedRequests) + float64(a.VerifyBatchCalls-b.VerifyBatchCalls)
	p.set("service.verify_batch_mean", float64(a.VerifyRequests-b.VerifyRequests)/max(windows, 1), "ratio")
	p.set("service.verify_max_batch", float64(a.VerifyMaxBatch), "count")
	p.set("service.verify_fallbacks", float64(a.VerifyFallbacks-b.VerifyFallbacks), "count")

	// Aggregation of sixteen committed proofs (the registry audit path).
	pp := vs.pools[1][0]
	proofs16, publics16 := repeatProof(pp.proof, pp.public, 16)
	srs, err := ipp.NewSRS(16, p.rng)
	if err != nil {
		return err
	}
	var agg *groth16.AggregateProof
	aggMS := p.timeMS("groth16.aggregate16_s", 1, func() { agg, err = groth16.AggregateProofs(srs, vs.vks[1], proofs16, publics16) })
	if err != nil {
		return err
	}
	p.set("groth16.aggregate16_s", aggMS/1e3, "s")
	p.probeMS("groth16.verify_aggregate16_ms", max(p.reps*3/5, 1), func() { err = groth16.VerifyAggregate(&srs.VK, vs.vks[1], agg, publics16) })
	p.check("groth16.VerifyAggregate", err)
	return nil
}

func repeatProof(proof *groth16.Proof, public []fr.Element, n int) ([]*groth16.Proof, [][]fr.Element) {
	proofs, publics := make([]*groth16.Proof, n), make([][]fr.Element, n)
	for i := range proofs {
		proofs[i], publics[i] = proof, public
	}
	return proofs, publics
}

// writeRawG1 lays points out as one raw proving-key section: contiguous
// uncompressed encodings.
func writeRawG1(path string, pts []curve.G1Affine) error {
	buf := make([]byte, 0, len(pts)*curve.G1UncompressedSize)
	for i := range pts {
		b := pts[i].BytesRaw()
		buf = append(buf, b[:]...)
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerMetrics fills the traced pass's metrics: the workload's own
// spans and counters under names that mean the same on every workload,
// then the probe suite.
func layerMetrics(cfg *config, res *result, ph *phase, cnt counters, rec *recorder, setupPeakMB, peakMB float64) ([]string, error) {
	traced := latenciesMS(ph.samples, func(s sample) bool { return s.traced })
	untraced := latenciesMS(ph.samples, func(s sample) bool { return !s.traced })
	var checks []float64
	for _, s := range ph.samples {
		checks = append(checks, ms(s.check))
	}
	// Root span self time: what the benchmark itself spends per traced op
	// outside its calls into the program (input generation, bookkeeping).
	var harness []float64
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op/") {
			harness = append(harness, ms(self[i]))
		}
	}
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	_, worst := tailPercentile(traced)
	set("bench.op_ms_p50", median(traced), "ms")
	set("bench.op_ms_tail", worst, "ms")
	set("bench.op_untraced_ms_p50", median(untraced), "ms")
	set("bench.trace_overhead_pct", 100*(median(traced)-median(untraced))/median(untraced), "%")
	set("bench.check_ms_p50", median(checks), "ms")
	set("bench.harness_self_ms_p50", median(harness), "ms")
	set("bench.ops", float64(len(ph.samples)), "count")
	set("bench.setup_peak_rss_mb", setupPeakMB, "MB")
	set("bench.peak_rss_mb", peakMB, "MB")
	set("engine.setups", float64(cnt.engSetups), "count")
	set("engine.mem_hits", float64(cnt.engMemHits), "count")
	set("engine.disk_hits", float64(cnt.engDiskHits), "count")
	set("engine.proves", float64(cnt.engProves), "count")
	set("engine.stream_proves", float64(cnt.engStreamProves), "count")
	set("engine.spill_proves", float64(cnt.engSpillProve), "count")
	set("engine.spill_bytes", float64(cnt.spillBytes), "count")
	set("service.load_verify_requests", float64(cnt.svcVerifyRequests), "count")
	set("service.load_batch_calls", float64(cnt.svcBatchCalls), "count")
	set("service.load_batched_requests", float64(cnt.svcBatchedRequests), "count")
	set("service.load_fallbacks", float64(cnt.svcFallbacks), "count")

	p := &prober{cfg: cfg, rec: rec, ph: ph, out: m, reps: 5, rng: rand.New(rand.NewSource(cfg.seed + 1))}
	if cfg.smoke {
		p.reps = 1
	}
	if err := p.runProbes(); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	extras := classLines(ph.samples)
	extras = append(extras, fmt.Sprintf("traced ops %d, untraced ops %d", len(traced), len(untraced)))
	return extras, nil
}
