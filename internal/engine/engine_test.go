package engine

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
	if err := e.Verify(r1.Keys.VK, r1.Proof, publicOf(cubicWitness(5, 3))); err != nil {
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
	if err := e.Verify(r2.Keys.VK, r2.Proof, publicOf(cubicWitness(5, 7))); err != nil {
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
	if err := e2.Verify(r1.Keys.VK, r2.Proof, publicOf(cubicWitness(5, 4))); err != nil {
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
	results := e.ProveMany(reqs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if got := e.Stats().Setups; got != 1 {
		t.Fatalf("concurrent same-digest requests ran %d setups, want 1", got)
	}
}

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
	results := e.ProveMany(reqs)
	vk := results[0].Keys.VK
	proofs := make([]*groth16.Proof, jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		proofs[i] = r.Proof
	}
	if err := e.VerifyMany(vk, proofs, publics); err != nil {
		t.Fatalf("batch verification failed: %v", err)
	}
	// Tampered public input must fail the batch.
	publics[1][0].SetUint64(12345)
	if err := e.VerifyMany(vk, proofs, publics); err == nil {
		t.Fatal("tampered batch accepted")
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
	var results []*Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		results = e.ProveMany(reqs)
	}()
	<-done // simplest deterministic ordering: drain, then close
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("pre-close request %d failed: %v", i, r.Err)
		}
	}

	// Every entry point must reject with the sentinel after Close.
	if _, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prove after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := e.Keys(cubicSystem(5), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Keys after Close: err = %v, want ErrClosed", err)
	}
	vk := results[0].Keys.VK
	if err := e.Verify(vk, results[0].Proof, publicOf(cubicWitness(5, 2))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Verify after Close: err = %v, want ErrClosed", err)
	}
	post := e.ProveMany(reqs[:1])
	if !errors.Is(post[0].Err, ErrClosed) {
		t.Fatalf("ProveMany after Close: err = %v, want ErrClosed", post[0].Err)
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
	results := e.ProveMany(reqs)
	proofs := make([]*groth16.Proof, jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		proofs[i] = r.Proof
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := e.Verify(results[0].Keys.VK, proofs[i], publics[i]); err != nil {
				t.Errorf("verify %d: %v", i, err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.VerifyMany(results[0].Keys.VK, proofs, publics); err != nil {
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
// engine; later requests address the circuit by digest alone.
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
	if err := e.Verify(r1.Keys.VK, r1.Proof, r1.PublicInputs); err != nil {
		t.Fatalf("solved proof rejected: %v", err)
	}

	// The circuit is cached beside the keys: digest-only request.
	if _, ok := e.cache.circuit(r1.Digest); !ok {
		t.Fatal("compiled system not cached beside the keys")
	}
	w2 := cubicWitness(5, 8)
	asg2 := inputsOf(w2)
	r2, err := e.Prove(Request{Name: "solve-2", Digest: r1.Digest, Public: asg2.Public, Secret: asg2.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("digest-only request missed the key cache")
	}
	if err := e.Verify(r2.Keys.VK, r2.Proof, publicOf(w2)); err != nil {
		t.Fatalf("digest-only proof rejected: %v", err)
	}

	st := e.Stats()
	if st.Solves != 2 {
		t.Fatalf("want 2 solves, got %d", st.Solves)
	}

	// Unknown digest fails fast.
	if _, err := e.Prove(Request{Digest: "feedface"}); err == nil {
		t.Fatal("unknown digest accepted")
	}
}

// TestTracedProveManyRace hammers the span recorder from the worker
// pool: every job in a ProveMany batch records into the SAME trace
// (engine workers and the MSM lane pool write events concurrently)
// while readers snapshot Events/Totals mid-flight. Run under -race
// this is the telemetry concurrency guard.
func TestTracedProveManyRace(t *testing.T) {
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
	results := e.ProveMany(reqs)
	close(stop)
	readers.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if err := e.VerifyCtx(ctx, results[0].Keys.VK, r.Proof, reqs[i].Public); err != nil {
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

// TestProveManyPanicIsolated: a panic inside one request of a ProveMany
// batch — the prover reading a randomness source that panics, the way a
// par worker failure inside groth16.Prove arrives — becomes that
// request's Result.Err and a prove error on the engine's registry. The
// other requests complete, on the pool as on the sequential path. (Before
// the recover, ProveMany's own goroutines took the process down.)
func TestProveManyPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 3} {
		base := runtime.NumGoroutine()
		e := New(Options{Workers: workers})
		sys := cubicSystem(5)
		// Keys first, so the panicking source is read by the prover and not
		// by a setup the other two requests would be waiting on.
		if _, _, err := e.Keys(sys, nil); err != nil {
			t.Fatal(err)
		}
		reqs := []Request{
			withInputs(Request{Name: "before", System: sys}, cubicWitness(5, 2)),
			withInputs(Request{Name: "exploding", System: sys, Rand: panicReader{}}, cubicWitness(5, 3)),
			withInputs(Request{Name: "after", System: sys}, cubicWitness(5, 4)),
		}
		results := e.ProveMany(reqs)
		for _, i := range []int{0, 2} {
			r := results[i]
			if r == nil || r.Err != nil {
				t.Fatalf("workers=%d: request %d beside the panicking one: %+v", workers, i, r)
			}
			if err := e.Verify(r.Keys.VK, r.Proof, reqs[i].Public); err != nil {
				t.Fatalf("workers=%d: proof %d rejected: %v", workers, i, err)
			}
		}
		bad := results[1]
		if bad == nil || bad.Err == nil || bad.Proof != nil || bad.Name != "exploding" {
			t.Fatalf("workers=%d: panicking request returned %+v, want its error", workers, bad)
		}
		for _, want := range []string{"engine: prove panicked", "rng exploded", "goroutine "} {
			if !strings.Contains(bad.Err.Error(), want) {
				t.Errorf("workers=%d: error lacks %q:\n%v", workers, want, bad.Err)
			}
		}
		if st := e.Stats(); st.Proves != 2 {
			t.Errorf("workers=%d: stats = %+v, want the 2 proofs that were produced", workers, st)
		}
		if got := e.m.proveErrors.Value(); got != 1 {
			t.Errorf("workers=%d: zkrownn_prove_errors_total = %d, want 1", workers, got)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines, want ≤ %d", workers, runtime.NumGoroutine(), base)
			}
		}
	}
}
