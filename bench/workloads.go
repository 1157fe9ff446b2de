package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zkrownn"
	"zkrownn/client"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/pairing"
)

// --- prove-mem / prove-ooc ---

// proveWorkload is the owner's recurring cost: one caller binding a
// fresh same-architecture suspect to the compiled circuit and proving
// it on a warm engine. prove-mem takes the default engine (keys, CSR
// and witness in memory); prove-ooc the same circuit under
// MemoryBudget 1 (streamed key, CSR section file, spilled witness,
// disk-resident quotient).
type proveWorkload struct {
	cfg       *config
	outOfCore bool

	in      *inputs
	dir     string
	eng     *zkrownn.Engine
	circuit *zkrownn.Circuit
	last    *zkrownn.ProveResult
	proves  uint64
}

func (w *proveWorkload) setUp() error {
	w.in = newInputs(w.cfg.seed, w.cfg.shape())
	w.proves, w.last = 0, nil
	q, err := zkrownn.Quantize(w.in.model, zkrownn.DefaultFixedPoint)
	if err != nil {
		return err
	}
	if w.circuit, err = zkrownn.BuildOwnershipCircuit(q, w.in.key, w.in.shape.bits); err != nil {
		return err
	}
	opts := zkrownn.EngineOptions{Rand: newLockedRand(w.cfg.seed)}
	warmUps := 2
	if w.outOfCore {
		if w.dir, err = os.MkdirTemp(w.cfg.tmpDir, "prove-ooc-*"); err != nil {
			return err
		}
		opts.MemoryBudget = 1
		opts.CacheDir = w.dir
		warmUps = 1
	}
	w.eng = zkrownn.NewEngine(opts)
	// The first warm-up runs the trusted setup.
	for i := 0; i < warmUps; i++ {
		if _, err := w.op(-1-i, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *proveWorkload) tearDown() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// op binds a fresh suspect, proves it, and verifies the proof under the
// issued key. Only bind + prove is the timed latency.
func (w *proveWorkload) op(i int, rec *recorder) (sample, error) {
	root := rec.begin("op/prove", i, -1)
	defer rec.end(root)
	suspect, err := w.in.suspect()
	if err != nil {
		return sample{}, err
	}

	t0 := time.Now()
	sp := rec.begin("zkrownn.BindSuspectModel", i, root)
	req, err := zkrownn.BindSuspectModel(w.circuit, suspect, nil)
	rec.end(sp)
	if err != nil {
		return sample{}, err
	}
	sp = rec.begin("Engine.Prove", i, root)
	proveStart := time.Now()
	res, err := w.eng.Prove(req)
	rec.end(sp)
	latency := time.Since(t0)
	if err != nil {
		return sample{latency: latency}, err
	}
	w.proves++
	w.last = res
	// Children of the Engine.Prove span, from the durations its result
	// already reports; what is left is the engine's own overhead.
	rec.add("engine/keys", i, sp, proveStart, res.SetupTime)
	rec.add("engine/solve", i, sp, proveStart.Add(res.SetupTime), res.SolveTime)
	rec.add("engine/prove", i, sp, proveStart.Add(res.SetupTime+res.SolveTime), res.ProveTime)

	c0 := time.Now()
	sp = rec.begin("zkrownn.VerifyOwnership", i, root)
	ok, err := zkrownn.VerifyOwnership(res.Keys.VK, res.Proof, res.PublicInputs)
	rec.end(sp)
	s := sample{latency: latency, check: time.Since(c0), traced: rec != nil}
	if err != nil {
		return s, fmt.Errorf("proof %d does not verify under the issued key: %w", i, err)
	}
	if !ok {
		return s, fmt.Errorf("proof %d verifies but its claim bit is 0", i)
	}
	return s, nil
}

func (w *proveWorkload) run(ctl loopCtl, ph *phase) {
	for i := 0; ctl.more(i); i++ {
		s, err := w.op(i, ctl.recorderFor(i))
		// What the owner ships per claim: the proof, plus the verifying
		// key the third party checks it against.
		var wire int64
		if w.last != nil {
			wire = int64(w.last.Proof.PayloadSize()) + w.last.Keys.VK.SizeBytes()
		}
		ph.add(s, wire, err)
	}
}

func (w *proveWorkload) finish(ph *phase) counters {
	if w.last != nil {
		vk, proof, public := w.last.Keys.VK, w.last.Proof, w.last.PublicInputs
		forged := *proof
		forged.Ar.Neg(&proof.Ar)
		ph.gate(mustReject("forged proof", func() (bool, error) { return zkrownn.VerifyOwnership(vk, &forged, public) }))
		wrong := append([]fr.Element(nil), public...)
		var one fr.Element
		one.SetOne()
		wrong[0].Add(&wrong[0], &one)
		ph.gate(mustReject("wrong public input", func() (bool, error) { return zkrownn.VerifyOwnership(vk, proof, wrong) }))
	}

	st := w.eng.Stats()
	cnt := counters{
		engSetups: st.Setups, engMemHits: st.MemHits, engDiskHits: st.DiskHits,
		engProves: st.Proves, engStreamProves: st.StreamProves, engSpillProve: st.SpillProves,
	}
	var wantStream uint64
	if w.outOfCore {
		wantStream = w.proves
		cnt.spillBytes = dirBytes(w.dir)
	}
	ph.gate(expect("engine.setups", st.Setups, 1))
	ph.gate(expect("engine.proves", st.Proves, w.proves))
	ph.gate(expect("engine.mem_hits", st.MemHits, w.proves-1))
	ph.gate(expect("engine.disk_hits", st.DiskHits, 0))
	ph.gate(expect("engine.stream_proves", st.StreamProves, wantStream))
	ph.gate(expect("engine.spill_proves", st.SpillProves, wantStream))
	return cnt
}

// mustReject is the tamper gate: a verification that succeeds with the
// claim standing is a soundness failure.
func mustReject(what string, verify func() (bool, error)) error {
	if ok, err := verify(); err == nil && ok {
		return fmt.Errorf("%s was accepted", what)
	}
	return nil
}

func expect(name string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", name, got, want)
	}
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file vanishing mid-walk only shrinks a size report
	})
	return n
}

// --- wire accounting ---

// countingTransport adds up request and response body bytes: the
// communication cost of an op as the client sees it.
type countingTransport struct {
	base     *http.Transport
	bytes    atomic.Int64 // request + response bodies
	reqBytes atomic.Int64 // request bodies alone
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
		t.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newClient returns a proof-service client on its own single keep-alive
// connection, plus the transport counting its bytes.
func newClient(url string) (*client.Client, *countingTransport, error) {
	ct := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	c, err := client.New(url, client.WithHTTPClient(&http.Client{Transport: ct}))
	return c, ct, err
}

func (t *countingTransport) close() { t.base.CloseIdleConnections() }

// --- register-cold ---

// registerWorkload is what an owner waits for once per architecture: a
// fresh proof service (empty key cache, empty registry directory)
// compiling the circuit and running trusted setup for one registration.
type registerWorkload struct {
	cfg *config
	in  *inputs
	// constraints is what the set-up registration reported; every timed
	// registration must agree.
	constraints int
	// last is the most recent op's /v1/stats, read before its service
	// closed.
	last *client.Stats
}

func (w *registerWorkload) setUp() error {
	w.in = newInputs(w.cfg.seed, w.cfg.shape())
	w.constraints = 0
	// One discarded registration, which also proves and verifies through
	// the fresh service once, so the issued key is known to work.
	_, _, err := w.op(-1, nil, true)
	return err
}

func (w *registerWorkload) tearDown() {}

func (w *registerWorkload) op(i int, rec *recorder, validate bool) (s sample, wire int64, err error) {
	root := rec.begin("op/register", i, -1)
	defer rec.end(root)
	dir, err := os.MkdirTemp(w.cfg.tmpDir, "register-*")
	if err != nil {
		return s, 0, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	t0 := time.Now()
	srv, err := zkrownn.NewProofService(zkrownn.ProofServiceOptions{
		RegistryDir:   dir,
		EngineOptions: zkrownn.EngineOptions{Rand: newLockedRand(w.cfg.seed)},
	})
	if err != nil {
		return s, 0, err
	}
	ts := httptest.NewServer(srv)
	closeAll := func() {
		ts.Close()
		srv.Close()
	}
	c, ct, err := newClient(ts.URL)
	if err != nil {
		closeAll()
		return s, 0, err
	}
	defer ct.close()
	sp := rec.begin("client.RegisterModel", i, root)
	reg, err := c.RegisterModel(ctx, w.in.model, w.in.key, client.RegisterOptions{Name: "mlp", MaxErrors: w.in.shape.bits})
	rec.end(sp)
	s.latency = time.Since(t0)
	s.traced = rec != nil
	wire = ct.bytes.Load()
	if err != nil {
		closeAll()
		return s, wire, err
	}

	c0 := time.Now()
	err = w.checkRegistration(ctx, c, reg, dir)
	if err == nil && validate {
		err = proveAndVerifyOnce(ctx, c, reg)
	}
	s.check = time.Since(c0)

	t1 := time.Now()
	closeAll()
	s.latency += time.Since(t1)
	return s, wire, err
}

func (w *registerWorkload) checkRegistration(ctx context.Context, c *client.Client, reg *client.Registration, dir string) error {
	switch {
	case reg.VK == nil || reg.ModelID == "":
		return errors.New("registration returned no key or ID")
	case reg.SetupCached || reg.AlreadyRegistered:
		return errors.New("a fresh service reported a cached setup")
	case len(reg.VK.IC) != reg.PublicInputs+1:
		return fmt.Errorf("verifying key has %d IC points for %d public inputs", len(reg.VK.IC), reg.PublicInputs)
	}
	if w.constraints == 0 {
		w.constraints = reg.Constraints
	}
	if reg.Constraints == 0 || reg.Constraints != w.constraints {
		return fmt.Errorf("registration reports %d constraints, want %d", reg.Constraints, w.constraints)
	}
	// The key's cached e(α, β) must be the pairing of its own points.
	if ab := pairing.Pair(&reg.VK.AlphaG1, &reg.VK.BetaG2); !ab.Equal(&reg.VK.AlphaBeta) {
		return errors.New("verifying key's cached e(alpha, beta) does not match its points")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	w.last = st
	if st.Engine.Setups != 1 || st.Service.CircuitsCompiled != 1 || st.Service.Models != 1 {
		return fmt.Errorf("fresh service after one registration: setups %d, compiled %d, models %d",
			st.Engine.Setups, st.Service.CircuitsCompiled, st.Service.Models)
	}
	if dirBytes(dir) == 0 {
		return errors.New("registry directory is empty after registration")
	}
	return nil
}

// proveAndVerifyOnce runs one prove job on a registration and checks
// the proof locally against the key the registration returned.
func proveAndVerifyOnce(ctx context.Context, c *client.Client, reg *client.Registration) error {
	ticket, err := c.SubmitProve(ctx, reg.ModelID, nil)
	if err != nil {
		return err
	}
	job, err := c.WaitForProof(ctx, ticket.JobID)
	if err != nil {
		return err
	}
	ok, err := zkrownn.VerifyOwnership(reg.VK, job.Proof, job.PublicInputs)
	if err != nil {
		return fmt.Errorf("job proof does not verify under the registration's key: %w", err)
	}
	if !ok {
		return errors.New("job proof verifies but its claim bit is 0")
	}
	return nil
}

func (w *registerWorkload) run(ctl loopCtl, ph *phase) {
	for i := 0; ctl.more(i); i++ {
		s, wire, err := w.op(i, ctl.recorderFor(i), false)
		ph.add(s, wire, err)
	}
}

// finish reports the last op's service: every op's fresh service was
// checked against its own /v1/stats (one setup, one compilation) as it
// ran, so there is nothing left to gate.
func (w *registerWorkload) finish(ph *phase) counters {
	if w.last == nil {
		return counters{}
	}
	e := w.last.Engine
	return counters{engSetups: e.Setups, engMemHits: e.MemHits, engDiskHits: e.DiskHits, engProves: e.Proves}
}

// --- verify-serve ---

// pooledProof is one honest proof with its instance plus the two
// tampered variants derived from it.
type pooledProof struct {
	proof  *zkrownn.Proof
	public zkrownn.Instance
	forged *zkrownn.Proof   // A negated: well-formed, fails the pairing check
	wrong  zkrownn.Instance // first input perturbed
}

func newPooledProof(job *client.JobStatus) pooledProof {
	p := pooledProof{proof: job.Proof, public: job.PublicInputs}
	forged := *job.Proof
	forged.Ar.Neg(&job.Proof.Ar)
	p.forged = &forged
	p.wrong = append(zkrownn.Instance(nil), job.PublicInputs...)
	var one fr.Element
	one.SetOne()
	p.wrong[0].Add(&p.wrong[0], &one)
	return p
}

// verifyService is a running proof service with a public-instance and a
// committed registration of the same architecture and a pool of proofs
// for each. The verify-serve workload and the service probes share it.
type verifyService struct {
	dir       string
	srv       *zkrownn.ProofService
	ts        *httptest.Server
	admin     *client.Client
	adminConn *countingTransport
	ids       [2]string // indexed by committed (0 public, 1 committed)
	vks       [2]*zkrownn.VerifyingKey
	pools     [2][]pooledProof
	jobs      []*client.JobStatus
	jobWall   []time.Duration
	regWall   [2]time.Duration
}

// startVerifyService registers both models and runs poolSize prove jobs
// per model. eng, when non-nil, is shared with the caller (the probes
// reuse their engine's cached keys); otherwise the service builds its
// own default engine, as zkrownn-server does.
func startVerifyService(tmp string, in *inputs, poolSize int, eng *zkrownn.Engine) (vs *verifyService, err error) {
	vs = &verifyService{}
	defer func() {
		if err != nil {
			vs.close()
		}
	}()
	if vs.dir, err = os.MkdirTemp(tmp, "verify-*"); err != nil {
		return nil, err
	}
	opts := zkrownn.ProofServiceOptions{RegistryDir: vs.dir, Engine: eng}
	if eng == nil {
		opts.EngineOptions = zkrownn.EngineOptions{Rand: newLockedRand(in.seed)}
	}
	if vs.srv, err = zkrownn.NewProofService(opts); err != nil {
		return nil, err
	}
	vs.ts = httptest.NewServer(vs.srv)
	if vs.admin, vs.adminConn, err = newClient(vs.ts.URL); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for committed := 0; committed < 2; committed++ {
		t0 := time.Now()
		reg, err := vs.admin.RegisterModel(ctx, in.model, in.key, client.RegisterOptions{
			Name: [2]string{"mlp", "mlp-committed"}[committed], MaxErrors: in.shape.bits, Committed: committed == 1,
		})
		if err != nil {
			return nil, err
		}
		vs.regWall[committed] = time.Since(t0)
		vs.ids[committed], vs.vks[committed] = reg.ModelID, reg.VK
	}
	// One job at a time, so each job's wall time is its own. Public-
	// instance jobs prove fresh suspects, so the pool's instances differ;
	// committed circuits bind the registered model.
	for committed := 0; committed < 2; committed++ {
		for j := 0; j < poolSize; j++ {
			var suspect *zkrownn.Model
			if committed == 0 {
				suspect = zkrownn.NewMLP(in.shape.in, []int{in.shape.hidden}, classes, in.rng)
			}
			start := time.Now()
			ticket, err := vs.admin.SubmitProve(ctx, vs.ids[committed], suspect)
			if err != nil {
				return nil, err
			}
			job, err := vs.admin.WaitForProof(ctx, ticket.JobID)
			if err != nil {
				return nil, err
			}
			vs.jobs = append(vs.jobs, job)
			vs.jobWall = append(vs.jobWall, time.Since(start))
			vs.pools[committed] = append(vs.pools[committed], newPooledProof(job))
		}
	}
	return vs, nil
}

func (vs *verifyService) close() {
	if vs.adminConn != nil {
		vs.adminConn.close()
	}
	if vs.ts != nil {
		vs.ts.Close()
	}
	if vs.srv != nil {
		vs.srv.Close()
	}
	if vs.dir != "" {
		os.RemoveAll(vs.dir)
	}
}

// send issues one scheduled request and checks the verdict: an honest
// proof must come back valid with its claim standing, a tampered one
// must be rejected.
func (vs *verifyService) send(ctx context.Context, c *client.Client, r request, i, lane int, rec *recorder) (sample, error) {
	root := rec.beginLane("op/verify-"+className[r.class], i, -1, lane)
	defer rec.end(root)
	m := 0
	if r.committedModel {
		m = 1
	}
	p := vs.pools[m][r.proof%len(vs.pools[m])]
	proof, public := p.proof, p.public
	if r.class == classTampered {
		if r.forgeProof {
			proof = p.forged
		} else {
			public = p.wrong
		}
	}
	t0 := time.Now()
	sp := rec.beginLane("client.Verify", i, root, lane)
	res, err := c.Verify(ctx, vs.ids[m], proof, public)
	rec.end(sp)
	s := sample{class: r.class, latency: time.Since(t0), traced: rec != nil}
	c0 := time.Now()
	err = checkVerdict(r, i, res, err)
	s.check = time.Since(c0)
	return s, err
}

func checkVerdict(r request, i int, res *client.VerifyResult, err error) error {
	if r.class == classTampered {
		// A rejection is either a verdict with valid=false or a 4xx for
		// material the decoder refuses; anything else accepted a forgery.
		var apiErr *client.APIError
		if err == nil && res.Valid {
			return fmt.Errorf("request %d: tampered proof accepted", i)
		}
		if err != nil && !(errors.As(err, &apiErr) && apiErr.Status >= 400 && apiErr.Status < 500) {
			return fmt.Errorf("request %d: %w", i, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	if !res.Valid || !res.Claim {
		return fmt.Errorf("request %d (%s): honest proof rejected: valid=%v claim=%v %s", i, className[r.class], res.Valid, res.Claim, res.Error)
	}
	return nil
}

// load drives the schedule with `clients` closed-loop callers, each on
// its own keep-alive connection, until ctl says stop.
func (vs *verifyService) load(clients int, schedule []request, ctl loopCtl, ph *phase) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for lane := 0; lane < clients; lane++ {
		c, ct, err := newClient(vs.ts.URL)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ct.close()
			ctx := context.Background()
			for {
				i := int(next.Add(1) - 1)
				if !ctl.more(i) {
					break
				}
				before := ct.bytes.Load()
				s, err := vs.send(ctx, c, schedule[i%len(schedule)], i, lane, ctl.recorderFor(i))
				ph.add(s, ct.bytes.Load()-before, err)
			}
		}()
	}
	return nil
}

// verifyWorkload is the third party's cost over the wire: closed-loop
// clients verifying against one service in a seeded 20/75/5 mix of
// public-instance, committed and tampered requests.
type verifyWorkload struct {
	cfg      *config
	in       *inputs
	vs       *verifyService
	schedule []request
	before   *client.Stats
}

func (w *verifyWorkload) poolSize() int {
	if w.cfg.smoke {
		return 1
	}
	return 2
}

func (w *verifyWorkload) setUp() error {
	w.in = newInputs(w.cfg.seed, w.cfg.shape())
	var err error
	if w.vs, err = startVerifyService(w.cfg.tmpDir, w.in, w.poolSize(), nil); err != nil {
		return err
	}
	w.schedule = newSchedule(w.in.rng, 4096, w.poolSize())
	// Warm-up: every class once per pool entry, on the admin connection.
	ctx := context.Background()
	for _, r := range []request{
		{class: classPublic},
		{class: classCommitted, committedModel: true},
		{class: classTampered, forgeProof: true},
		{class: classTampered, committedModel: true},
	} {
		for j := 0; j < w.poolSize(); j++ {
			r.proof = j
			if _, err := w.vs.send(ctx, w.vs.admin, r, -1, 0, nil); err != nil {
				return err
			}
		}
	}
	w.before, err = w.vs.admin.Stats(ctx)
	return err
}

func (w *verifyWorkload) tearDown() {
	if w.vs != nil {
		w.vs.close()
		w.vs = nil
	}
}

func (w *verifyWorkload) run(ctl loopCtl, ph *phase) {
	if ctl.maxOps > 0 {
		ctl.maxOps = 40 // a smoke run still needs every class to appear
	}
	if err := w.vs.load(w.cfg.procs, w.schedule, ctl, ph); err != nil {
		ph.gate(err)
	}
}

func (w *verifyWorkload) finish(ph *phase) counters {
	requests := uint64(len(ph.samples))
	after, err := w.vs.admin.Stats(context.Background())
	if err != nil {
		ph.gate(err)
		return counters{}
	}
	e, s, b := after.Engine, after.Service, w.before.Service
	cnt := counters{
		engSetups: e.Setups, engMemHits: e.MemHits, engDiskHits: e.DiskHits, engProves: e.Proves,
		svcVerifyRequests:  s.VerifyRequests - b.VerifyRequests,
		svcBatchCalls:      s.VerifyBatchCalls - b.VerifyBatchCalls,
		svcBatchedRequests: s.VerifyBatchedRequests - b.VerifyBatchedRequests,
		svcFallbacks:       s.VerifyFallbacks - b.VerifyFallbacks,
	}
	var tampered uint64
	for _, sm := range ph.samples {
		if sm.class == classTampered {
			tampered++
		}
	}
	// Every request is well-formed, so the batcher must have seen each;
	// a window falls back only when a tampered proof shared it.
	ph.gate(expect("service.verify_requests", cnt.svcVerifyRequests, requests))
	if cnt.svcFallbacks > tampered {
		ph.gate(fmt.Errorf("service.verify_fallbacks = %d exceeds the %d tampered requests", cnt.svcFallbacks, tampered))
	}
	ph.gate(expect("engine.setups", e.Setups, 2))
	ph.gate(expect("engine.proves", e.Proves, uint64(2*w.poolSize())))
	return cnt
}
