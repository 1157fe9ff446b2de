package engine

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// cubicSystem is x³ + x + k = out (out public) — the standard toy
// circuit, every wire an input. Different k values produce different
// constraint coefficients and therefore different circuit digests.
func cubicSystem(k uint64) *r1cs.CompiledSystem {
	cs, err := r1cstest.CSR(r1cstest.Cubic(k))
	if err != nil {
		panic(err)
	}
	return cs
}

func cubicWitness(k, x uint64) []fr.Element { return r1cstest.CubicWitness(k, x) }

func publicOf(w []fr.Element) []fr.Element { return w[1:2] }

// inputsOf splits a cubic witness into the assignment its system solves
// from: every wire but the constant is an input.
func inputsOf(w []fr.Element) r1cs.Assignment {
	return r1cs.Assignment{Public: w[1:2], Secret: w[2:]}
}

// withInputs sets req to solve w's inputs (inputsOf).
func withInputs(req Request, w []fr.Element) Request {
	asg := inputsOf(w)
	req.Public, req.Secret = asg.Public, asg.Secret
	return req
}

// verifyOne checks a single proof, untraced.
func verifyOne(e *Engine, vk *groth16.VerifyingKey, proof *groth16.Proof, public []fr.Element) error {
	return e.Verify(nil, vk, []*groth16.Proof{proof}, [][]fr.Element{public})
}

// proveConcurrently proves every request on its own goroutine, as a
// front-end's job queue does, and returns the results in request order.
func proveConcurrently(t *testing.T, e *Engine, reqs []Request) []*Result {
	t.Helper()
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Prove(reqs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return results
}

func TestProveCacheHitSkipsSetup(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(1))})
	sys := cubicSystem(5)

	r1, err := e.Prove(withInputs(Request{Name: "first", System: sys}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first prove must run setup")
	}
	if err := verifyOne(e, r1.Keys.VK, r1.Proof, publicOf(cubicWitness(5, 3))); err != nil {
		t.Fatalf("first proof rejected: %v", err)
	}

	// Same digest, different witness: the repeat-dispute shape.
	r2, err := e.Prove(withInputs(Request{Name: "second", System: cubicSystem(5)}, cubicWitness(5, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second prove for the same circuit digest must hit the key cache")
	}
	if r2.SetupTime >= r1.SetupTime {
		t.Fatalf("cache-hit SetupTime %v not cheaper than real setup %v", r2.SetupTime, r1.SetupTime)
	}
	if err := verifyOne(e, r2.Keys.VK, r2.Proof, publicOf(cubicWitness(5, 7))); err != nil {
		t.Fatalf("cached-key proof rejected: %v", err)
	}

	st := e.Stats()
	if st.Setups != 1 || st.MemHits != 1 || st.Proves != 2 {
		t.Fatalf("stats = %+v, want 1 setup, 1 mem hit, 2 proves", st)
	}
}

func TestDistinctDigestsDistinctKeys(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(2))})
	ra, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Prove(withInputs(Request{System: cubicSystem(9)}, cubicWitness(9, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Digest == rb.Digest {
		t.Fatal("different constraint coefficients must give different digests")
	}
	if rb.CacheHit {
		t.Fatal("different digest must not hit the cache")
	}
	if e.Stats().Setups != 2 {
		t.Fatalf("want 2 setups, got %d", e.Stats().Setups)
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))

	e1 := New(Options{CacheDir: dir, Rand: rng})
	r1, err := e1.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh engine (cold memory) over the same directory: disk hit.
	e2 := New(Options{CacheDir: dir, Rand: rng})
	r2, err := e2.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("restarted engine must load keys from disk")
	}
	st := e2.Stats()
	if st.Setups != 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 0 setups and 1 disk hit", st)
	}
	// Keys deserialized from disk must interoperate with the original VK.
	if err := verifyOne(e2, r1.Keys.VK, r2.Proof, publicOf(cubicWitness(5, 4))); err != nil {
		t.Fatalf("proof from disk-cached keys rejected by original VK: %v", err)
	}
}

func TestConcurrentSetupDeduplicated(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(4)), Workers: 8})
	const jobs = 8
	reqs := make([]Request, jobs)
	for i := range reqs {
		reqs[i] = withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, uint64(i+2)))
	}
	proveConcurrently(t, e, reqs)
	if got := e.Stats().Setups; got != 1 {
		t.Fatalf("concurrent same-digest requests ran %d setups, want 1", got)
	}
}

// TestVerifyMany checks several proofs in one Verify call.
func TestVerifyMany(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(5)), Workers: 4})
	const jobs = 3
	reqs := make([]Request, jobs)
	publics := make([][]fr.Element, jobs)
	for i := range reqs {
		w := cubicWitness(5, uint64(i+2))
		reqs[i] = withInputs(Request{System: cubicSystem(5)}, w)
		publics[i] = publicOf(w)
	}
	results := proveConcurrently(t, e, reqs)
	vk := results[0].Keys.VK
	proofs := make([]*groth16.Proof, jobs)
	for i, r := range results {
		proofs[i] = r.Proof
	}
	if err := e.Verify(nil, vk, proofs, publics); err != nil {
		t.Fatalf("batch verification failed: %v", err)
	}
	if got := e.Stats().Verifies; got != jobs {
		t.Fatalf("verifies = %d after one batch of %d", got, jobs)
	}
	// Tampered public input must fail the batch.
	publics[1][0].SetUint64(12345)
	if err := e.Verify(nil, vk, proofs, publics); err == nil {
		t.Fatal("tampered batch accepted")
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestVerifyChallengesIgnoreOptionsRand: batch challenges never come
// from Options.Rand. An embedder that seeds Rand for reproducible setups
// would otherwise hand a prover the challenges r₀ = 1 and r₁, and with
// them two invalid proofs that pass as one batch: C₀ + r₁·X and
// C₁ − r₀·X cancel in Σ rᵢ·Cᵢ.
func TestVerifyChallengesIgnoreOptionsRand(t *testing.T) {
	const seed = 42
	prover := New(Options{Rand: rand.New(rand.NewSource(43))})
	var vk *groth16.VerifyingKey
	var proofs []*groth16.Proof
	var publics [][]fr.Element
	for _, x := range []uint64{2, 3} {
		r, err := prover.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, x)))
		if err != nil {
			t.Fatal(err)
		}
		vk = r.Keys.VK
		proofs = append(proofs, r.Proof)
		publics = append(publics, r.PublicInputs)
	}

	// r₁ as a verifier reading the seeded stream would draw it: the
	// first non-zero element, as groth16.BatchVerify draws.
	replay := rand.New(rand.NewSource(seed))
	var r1 fr.Element
	for r1.IsZero() {
		if _, err := r1.SetRandom(replay); err != nil {
			t.Fatal(err)
		}
	}
	x := curve.G1Generator()
	var c0, c1, r1x curve.G1Jac
	r1x.ScalarMul(&x, &r1)
	c0.FromAffine(&proofs[0].Krs).AddAssign(&r1x)
	c1.FromAffine(&proofs[1].Krs).SubAssign(&x)
	bad0, bad1 := *proofs[0], *proofs[1]
	bad0.Krs.FromJacobian(&c0)
	bad1.Krs.FromJacobian(&c1)
	bad := []*groth16.Proof{&bad0, &bad1}
	if err := groth16.BatchVerify(vk, bad, publics, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatalf("the crafted pair does not cancel under the seeded challenges: %v", err)
	}

	src := &countingReader{r: rand.New(rand.NewSource(seed))}
	e := New(Options{Rand: src})
	for i := range bad {
		if err := verifyOne(e, vk, bad[i], publics[i]); err == nil {
			t.Fatalf("crafted proof %d accepted on its own", i)
		}
	}
	if err := e.Verify(nil, vk, bad, publics); err == nil {
		t.Fatal("a pair crafted against Options.Rand's challenges passed as one batch")
	}
	if n := src.n.Load(); n != 0 {
		t.Fatalf("Verify read %d bytes from Options.Rand, want 0", n)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Options{CacheEntries: 2, Rand: rand.New(rand.NewSource(6))})
	for _, k := range []uint64{5, 6, 7} {
		if _, err := e.Prove(withInputs(Request{System: cubicSystem(k)}, cubicWitness(k, 3))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	// k=5 was evicted; proving it again runs setup.
	before := e.Stats().Setups
	r, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit || e.Stats().Setups != before+1 {
		t.Fatal("evicted digest must re-run setup")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(7)), Workers: 4})

	// In-flight work started before Close must complete; Close blocks
	// until it has drained.
	const jobs = 4
	reqs := make([]Request, jobs)
	for i := range reqs {
		reqs[i] = withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, uint64(i+2)))
	}
	results := proveConcurrently(t, e, reqs) // simplest deterministic ordering: drain, then close
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Every entry point must reject with the sentinel after Close.
	if _, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prove after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := e.Keys(cubicSystem(5), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Keys after Close: err = %v, want ErrClosed", err)
	}
	vk := results[0].Keys.VK
	if err := verifyOne(e, vk, results[0].Proof, publicOf(cubicWitness(5, 2))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Verify after Close: err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The caches survive Close (Close is a request barrier, not a purge).
	if e.cache.len() == 0 {
		t.Fatal("Close must not drop cached keys")
	}
}

// TestStatsRaceUnderLoad hammers Stats and the key cache from many readers
// while proves and verifies run — the access pattern a service /stats
// endpoint produces. Run under -race (CI does) to audit counter
// atomicity; all Stats counters must be atomics.
func TestStatsRaceUnderLoad(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(8)), Workers: 4})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = e.Stats()
					_ = e.cache.len()
				}
			}
		}()
	}

	const jobs = 6
	reqs := make([]Request, jobs)
	publics := make([][]fr.Element, jobs)
	for i := range reqs {
		w := cubicWitness(5, uint64(i+2))
		reqs[i] = withInputs(Request{System: cubicSystem(5)}, w)
		publics[i] = publicOf(w)
	}
	results := proveConcurrently(t, e, reqs)
	proofs := make([]*groth16.Proof, jobs)
	for i, r := range results {
		proofs[i] = r.Proof
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := verifyOne(e, results[0].Keys.VK, proofs[i], publics[i]); err != nil {
				t.Errorf("verify %d: %v", i, err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.Verify(nil, results[0].Keys.VK, proofs, publics); err != nil {
			t.Errorf("batch verify: %v", err)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	st := e.Stats()
	if st.Proves != jobs || st.Setups != 1 {
		t.Fatalf("stats = %+v, want %d proves and 1 setup", st, jobs)
	}
	if st.Verifies != jobs*2 {
		t.Fatalf("verifies = %d, want %d", st.Verifies, jobs*2)
	}
}

// TestSolveManyRequests drives the compile-once / solve-many request
// shape: one system, many input assignments, witnesses generated by the
// engine.
func TestSolveManyRequests(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(9))})
	sys := cubicSystem(5)

	// First request carries the system and an assignment (no witness).
	w1 := cubicWitness(5, 3)
	asg1 := inputsOf(w1)
	r1, err := e.Prove(Request{Name: "solve-1", System: sys, Public: asg1.Public, Secret: asg1.Secret})
	if err != nil {
		t.Fatal(err)
	}
	want := publicOf(w1)
	if len(r1.PublicInputs) != len(want) || !r1.PublicInputs[0].Equal(&want[0]) {
		t.Fatalf("PublicInputs = %v, want %v", r1.PublicInputs, want)
	}
	if err := verifyOne(e, r1.Keys.VK, r1.Proof, r1.PublicInputs); err != nil {
		t.Fatalf("solved proof rejected: %v", err)
	}

	w2 := cubicWitness(5, 8)
	asg2 := inputsOf(w2)
	r2, err := e.Prove(Request{Name: "solve-2", System: sys, Public: asg2.Public, Secret: asg2.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second request for the circuit missed the key cache")
	}
	if err := verifyOne(e, r2.Keys.VK, r2.Proof, publicOf(w2)); err != nil {
		t.Fatalf("second solved proof rejected: %v", err)
	}

	st := e.Stats()
	if st.Solves != 2 {
		t.Fatalf("want 2 solves, got %d", st.Solves)
	}

	// A request without a system fails fast.
	if _, err := e.Prove(withInputs(Request{}, w2)); err == nil {
		t.Fatal("request without a constraint system accepted")
	}
}

// TestTracedProveRace hammers the span recorder from concurrent proves:
// every job records into the SAME trace (the provers' goroutines and the
// MSM lane pool write events concurrently) while readers snapshot
// Events/Totals mid-flight. Run under -race this is the telemetry
// concurrency guard.
func TestTracedProveRace(t *testing.T) {
	e := New(Options{Rand: rand.New(rand.NewSource(17)), Workers: 4})
	tr := obs.NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = tr.Events()
					_ = tr.Totals()
				}
			}
		}()
	}

	const jobs = 8
	reqs := make([]Request, jobs)
	for i := range reqs {
		reqs[i] = withInputs(Request{System: cubicSystem(7), Ctx: ctx}, cubicWitness(7, uint64(i+2)))
	}
	results := proveConcurrently(t, e, reqs)
	close(stop)
	readers.Wait()
	for i, r := range results {
		if err := e.Verify(ctx, results[0].Keys.VK, []*groth16.Proof{r.Proof}, [][]fr.Element{reqs[i].Public}); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}

	totals := tr.Totals()
	if totals["engine/prove"] == 0 {
		t.Fatalf("shared trace recorded no engine/prove time (%d names)", len(totals))
	}
	if totals["verify/pairing"] == 0 {
		t.Fatal("shared trace recorded no verify/pairing time")
	}
}

// panicReader is a randomness source that fails the way a par worker
// inside trusted setup does: by panicking on the goroutine that called
// in. With gate set it first reports that setup has reached it and waits
// to be released, so a test can line a waiter up behind the setup.
type panicReader struct{ entered, gate chan struct{} }

func (r panicReader) Read([]byte) (int, error) {
	if r.gate != nil {
		close(r.entered)
		<-r.gate
	}
	panic("rng exploded")
}

// TestSetupPanicDoesNotPoisonDigest: a panic inside setup must cost its
// own request only. The singleflight entry is deregistered and its
// waiters woken with an error on the way out, so the next request for
// the same circuit runs a fresh setup and Close still drains. (Before
// the deferred cleanup the entry stayed registered: every later request
// for the digest blocked forever, holding the lifecycle lock Close needs.)
func TestSetupPanicDoesNotPoisonDigest(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(Options{})
	sys := cubicSystem(5)
	// keys runs one Keys call, reporting instead of propagating a panic.
	keys := func(rng io.Reader) (panicked any, err error) {
		defer func() { panicked = recover() }()
		_, _, err = e.Keys(sys, rng)
		return nil, err
	}
	type outcome struct {
		panicked any
		err      error
	}
	await := func(what string, ch chan outcome) outcome {
		select {
		case o := <-ch:
			return o
		case <-time.After(10 * time.Second):
			t.Fatalf("%s is still blocked 10 s after the setup panicked", what)
			panic("unreachable")
		}
	}
	// Whether the second request gets in line behind the first before the
	// panic is a race the test cannot observe from outside; give it a
	// little longer each round until it has been seen waiting. A late one
	// runs — and panics in — its own setup, which is the same un-poisoned
	// digest seen from the other side.
	sawWaiter := false
	for round := 0; !sawWaiter; round++ {
		if round == 50 {
			t.Fatal("never saw the second request wait on the first one's setup")
		}
		first := panicReader{entered: make(chan struct{}), gate: make(chan struct{})}
		firstDone, secondDone := make(chan outcome, 1), make(chan outcome, 1)
		go func() {
			p, err := keys(first)
			firstDone <- outcome{p, err}
		}()
		<-first.entered // setup is running and registered in flight
		go func() {
			p, err := keys(panicReader{})
			secondDone <- outcome{p, err}
		}()
		time.Sleep(time.Duration(round) * time.Millisecond)
		close(first.gate)
		if o := await("the request whose setup panicked", firstDone); o.panicked == nil {
			t.Fatalf("setup panic did not reach its caller (err = %v)", o.err)
		}
		o := await("a request for the same digest", secondDone)
		switch {
		case o.panicked != nil: // arrived after the deregistration
		case o.err == nil || !strings.Contains(o.err.Error(), "rng exploded"):
			t.Fatalf("waiter got err = %v, want one naming the panic", o.err)
		default:
			sawWaiter = true
		}
	}

	// A fresh request with a sound source sets the same circuit up.
	if kp, hit, err := e.Keys(sys, rand.New(rand.NewSource(12))); err != nil || hit || kp == nil {
		t.Fatalf("Keys after the panics: keys %v, hit %v, err %v; want a fresh setup", kp != nil, hit, err)
	}
	if st := e.Stats(); st.Setups != 1 {
		t.Fatalf("stats = %+v, want exactly the one completed setup", st)
	}
	closed := make(chan outcome, 1)
	go func() { closed <- outcome{err: e.Close()} }()
	if o := await("Close", closed); o.err != nil {
		t.Fatal(o.err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want ≤ %d", runtime.NumGoroutine(), base)
		}
	}
}
