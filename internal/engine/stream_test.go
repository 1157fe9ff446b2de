package engine

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zkrownn/internal/groth16"
)

// damagedCacheHeals is the disk tier's end-to-end safety check for one
// residency (budget 0: keys read whole; 1: streamed key, CSR file and
// spilled witness): a prove populates dir, damage mangles the digest's
// file with the given extension, and a fresh engine must treat that as a
// miss — re-run setup, prove soundly, and overwrite the bad file with a
// good one that a third engine then hits — rather than proving with a
// mangled key or failing hard. (Which damage the frame detects is
// diskfile's table; this is what the engine does about it.)
func damagedCacheHeals(t *testing.T, budget int64, ext string, damage func(path string) error) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(31))
	opts := Options{CacheDir: dir, MemoryBudget: budget, Rand: rng}

	e1 := New(opts)
	defer e1.Close()
	r1, err := e1.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := damage(filepath.Join(dir, r1.Digest+ext)); err != nil {
		t.Fatalf("budget %d: damaging the cached %s: %v", budget, ext, err)
	}

	e2 := New(opts)
	defer e2.Close()
	r2, err := e2.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 4)))
	if err != nil {
		t.Fatalf("budget %d: prove over a damaged %s: %v", budget, ext, err)
	}
	if st := e2.Stats(); r2.CacheHit || st.Setups != 1 || st.DiskHits != 0 {
		t.Fatalf("budget %d: damaged %s served from cache (hit=%v, stats=%+v), want 1 setup and 0 disk hits", budget, ext, r2.CacheHit, st)
	}
	if want := map[int64]Residency{0: Resident, 1: OutOfCore}[budget]; r2.Keys.Plan.Residency != want {
		t.Fatalf("budget %d: re-setup keys planned %s, want %s", budget, r2.Keys.Plan.Residency, want)
	}
	if err := e2.Verify(r2.Keys.VK, r2.Proof, publicOf(cubicWitness(5, 4))); err != nil {
		t.Fatalf("budget %d: re-setup proof rejected: %v", budget, err)
	}

	// The repaired entry was rewritten whole: a third engine hits disk
	// again, and its keys interoperate with the re-setup's.
	e3 := New(opts)
	defer e3.Close()
	r3, err := e3.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if st := e3.Stats(); !r3.CacheHit || st.DiskHits != 1 || st.Setups != 0 {
		t.Fatalf("budget %d: rewritten %s not served from disk (hit=%v, stats=%+v)", budget, ext, r3.CacheHit, st)
	}
	if err := e3.Verify(r2.Keys.VK, r3.Proof, publicOf(cubicWitness(5, 6))); err != nil {
		t.Fatalf("budget %d: proof from the rewritten cache rejected by the re-setup's VK: %v", budget, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("budget %d: temp file %s left in the cache directory", budget, e.Name())
		}
	}
}

// TestDiskCacheRejectsTruncatedKey cuts a cached file short — the key in
// half, the key by its last byte, the verifying key in half — for both
// key residencies.
func TestDiskCacheRejectsTruncatedKey(t *testing.T) {
	cut := func(keep func(size int64) int64) func(string) error {
		return func(path string) error {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, keep(info.Size()))
		}
	}
	for _, budget := range []int64{0, 1} {
		damagedCacheHeals(t, budget, ".pk", cut(func(n int64) int64 { return n / 2 }))
		damagedCacheHeals(t, budget, ".pk", cut(func(n int64) int64 { return n - 1 }))
		damagedCacheHeals(t, budget, ".vk", cut(func(n int64) int64 { return n / 2 }))
	}
}

// TestDiskCacheRejectsBitFlip flips one payload byte inside the frame of
// the key, then of the verifying key, for both key residencies; the CRC
// must catch it at open time and force a re-setup.
func TestDiskCacheRejectsBitFlip(t *testing.T) {
	flip := func(path string) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x40
		return os.WriteFile(path, raw, 0o644)
	}
	for _, budget := range []int64{0, 1} {
		damagedCacheHeals(t, budget, ".pk", flip)
		damagedCacheHeals(t, budget, ".vk", flip)
	}
}

// TestStreamedEngineRoundTrip forces out-of-core mode with a 1-byte
// memory budget and checks the whole lifecycle: spilled setup, streamed
// prove, in-memory reuse, and a disk hit after restart.
func TestStreamedEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(33))

	e1 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e1.Close()
	r1, err := e1.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, streamed := r1.Keys.PK.(*groth16.StreamedProvingKey); !streamed || r1.Keys.Plan.Residency != OutOfCore {
		t.Fatalf("1-byte budget must plan out-of-core with a streamed proving key, got %s with a %T", r1.Keys.Plan.Residency, r1.Keys.PK)
	}
	if r1.Keys.Plan.Reason == "" {
		t.Fatal("the plan must say why")
	}
	if r1.Keys.PK.SizeBytes() <= 0 {
		t.Fatal("streamed key pair must report its key size")
	}
	if err := e1.Verify(r1.Keys.VK, r1.Proof, publicOf(cubicWitness(5, 3))); err != nil {
		t.Fatalf("streamed proof rejected: %v", err)
	}

	// Same digest again: the open streamed key is reused from memory.
	r2, err := e1.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second streamed prove must hit the in-memory key cache")
	}
	st := e1.Stats()
	if st.Setups != 1 || st.StreamProves != 2 {
		t.Fatalf("stats = %+v, want 1 setup and 2 streamed proves", st)
	}

	// Restart: the spilled raw key in CacheDir serves a cold engine.
	e2 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e2.Close()
	r3, err := e2.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, streamed := r3.Keys.PK.(*groth16.StreamedProvingKey); !r3.CacheHit || !streamed {
		t.Fatalf("restarted streamed engine must stream from the disk cache (hit=%v, key %T)", r3.CacheHit, r3.Keys.PK)
	}
	st2 := e2.Stats()
	if st2.Setups != 0 || st2.DiskHits != 1 {
		t.Fatalf("restart stats = %+v, want 0 setups and 1 disk hit", st2)
	}
	// Cross-check against the original engine's VK.
	if err := e2.Verify(r1.Keys.VK, r3.Proof, publicOf(cubicWitness(5, 4))); err != nil {
		t.Fatalf("streamed proof from restart rejected by original VK: %v", err)
	}
}

// TestStreamedProofMatchesInMemoryEngine proves the same circuit with
// the same engine randomness in both modes and requires identical proof
// bytes — the engine-level replica of the groth16 oracle.
func TestStreamedProofMatchesInMemoryEngine(t *testing.T) {
	sys := cubicSystem(5)
	w := cubicWitness(5, 3)

	inMem := New(Options{Rand: rand.New(rand.NewSource(34))})
	rIn, err := inMem.Prove(withInputs(Request{System: sys}, w))
	if err != nil {
		t.Fatal(err)
	}

	streamed := New(Options{CacheDir: t.TempDir(), MemoryBudget: 1, Rand: rand.New(rand.NewSource(34))})
	defer streamed.Close()
	rSt, err := streamed.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if rIn.Keys.Plan.Residency != Resident || rSt.Keys.Plan.Residency == Resident {
		t.Fatalf("planned %s and %s, want resident and not", rIn.Keys.Plan.Residency, rSt.Keys.Plan.Residency)
	}
	if !rIn.Proof.Ar.Equal(&rSt.Proof.Ar) || !rIn.Proof.Bs.Equal(&rSt.Proof.Bs) || !rIn.Proof.Krs.Equal(&rSt.Proof.Krs) {
		t.Fatal("streamed engine proof diverges from in-memory engine proof")
	}
}

// TestSpilledEngineRoundTrip forces full out-of-core mode (streamed
// key, CSR section file, disk-backed witness tape) and checks the whole
// lifecycle: spilled solve+prove with PublicInputs, a digest-only repeat against the stripped cached circuit, a
// restart served by the on-disk key and CSR files, and recovery from a
// corrupted CSR file.
func TestSpilledEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(36))
	sys := cubicSystem(5)
	asg := inputsOf(cubicWitness(5, 3))

	e1 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e1.Close()
	r1, err := e1.Prove(Request{System: sys, Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Keys.Plan.Residency != OutOfCore {
		t.Fatalf("1-byte budget must force full out-of-core mode, planned %s", r1.Keys.Plan.Residency)
	}
	want := publicOf(cubicWitness(5, 3))
	if len(r1.PublicInputs) != len(want) || !r1.PublicInputs[0].Equal(&want[0]) {
		t.Fatalf("PublicInputs = %v, want %v", r1.PublicInputs, want)
	}
	if err := e1.Verify(r1.Keys.VK, r1.Proof, r1.PublicInputs); err != nil {
		t.Fatalf("spilled proof rejected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, r1.Digest+".csr")); err != nil {
		t.Fatalf("expected CSR spill file beside the key: %v", err)
	}
	if st := e1.Stats(); st.SpillProves != 1 || st.StreamProves != 1 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want 1 spilled prove and 1 solve", st)
	}

	// The cache must hold a solver-only circuit copy, and a digest-only
	// request must still solve and prove through the spill files.
	if cs, ok := e1.cache.circuit(r1.Digest); !ok || !cs.Stripped() {
		t.Fatalf("cached circuit not stripped (ok=%v)", ok)
	}
	asg7 := inputsOf(cubicWitness(5, 7))
	r2, err := e1.Prove(Request{Digest: r1.Digest, Public: asg7.Public, Secret: asg7.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("digest-only spilled prove must hit the key cache")
	}
	if err := e1.Verify(r1.Keys.VK, r2.Proof, r2.PublicInputs); err != nil {
		t.Fatalf("digest-only spilled proof rejected: %v", err)
	}

	// Restart: spilled key and CSR file both reopen from CacheDir.
	e2 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e2.Close()
	r3, err := e2.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || r3.Keys.Plan.Residency != OutOfCore {
		t.Fatalf("restart must stream keys and CSR from disk (hit=%v, planned %s)", r3.CacheHit, r3.Keys.Plan.Residency)
	}
	if err := e2.Verify(r1.Keys.VK, r3.Proof, r3.PublicInputs); err != nil {
		t.Fatalf("restarted spilled proof rejected by original VK: %v", err)
	}

	// A corrupted CSR file is rewritten from the resent system.
	csrFile := filepath.Join(dir, r1.Digest+".csr")
	raw, err := os.ReadFile(csrFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(csrFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e3.Close()
	r4, err := e3.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatalf("prove over corrupted CSR file: %v", err)
	}
	if err := e3.Verify(r1.Keys.VK, r4.Proof, r4.PublicInputs); err != nil {
		t.Fatalf("proof after CSR rewrite rejected: %v", err)
	}

	// A missing CSR file cannot be rewritten from a solver-only copy: the
	// disk load is a miss, setup reports what is wrong, and nothing
	// half-loaded is cached — the full system resent afterwards proves.
	if err := os.Remove(csrFile); err != nil {
		t.Fatal(err)
	}
	e4 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e4.Close()
	_, err = e4.Prove(Request{System: cubicSystem(5).StripForSolve(), Public: asg.Public, Secret: asg.Secret})
	if err == nil || !strings.Contains(err.Error(), "resend the compiled system") {
		t.Fatalf("solver-only prove without a CSR file: err = %v, want a resend error", err)
	}
	if st := e4.Stats(); st.DiskHits != 0 || e4.cache.len() != 0 {
		t.Fatalf("failed load counted as a disk hit or cached (%d entries): %+v", e4.cache.len(), st)
	}
	r5, err := e4.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatalf("prove after resending the system: %v", err)
	}
	if err := e4.Verify(r1.Keys.VK, r5.Proof, r5.PublicInputs); err != nil {
		t.Fatalf("proof after resend rejected: %v", err)
	}
}

// TestSpilledProofMatchesInMemoryEngine is the engine-level oracle for
// full out-of-core mode: same circuit, same randomness, identical proof
// points whether everything is resident or nothing is.
func TestSpilledProofMatchesInMemoryEngine(t *testing.T) {
	sys := cubicSystem(5)
	asg := inputsOf(cubicWitness(5, 3))

	inMem := New(Options{Rand: rand.New(rand.NewSource(37))})
	rIn, err := inMem.Prove(Request{System: sys, Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}

	spilled := New(Options{CacheDir: t.TempDir(), MemoryBudget: 1, Rand: rand.New(rand.NewSource(37))})
	defer spilled.Close()
	rSp, err := spilled.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if rSp.Keys.Plan.Residency != OutOfCore {
		t.Fatalf("expected full out-of-core mode, planned %s", rSp.Keys.Plan.Residency)
	}
	if !rIn.Proof.Ar.Equal(&rSp.Proof.Ar) || !rIn.Proof.Bs.Equal(&rSp.Proof.Bs) || !rIn.Proof.Krs.Equal(&rSp.Proof.Krs) {
		t.Fatal("spilled engine proof diverges from in-memory engine proof")
	}
	if len(rIn.PublicInputs) != len(rSp.PublicInputs) || !rIn.PublicInputs[0].Equal(&rSp.PublicInputs[0]) {
		t.Fatal("spilled engine instance diverges from in-memory engine instance")
	}
}

// TestStreamedEngineTempSpill exercises streaming without a CacheDir:
// the raw key spills to a temp directory that Close removes.
func TestStreamedEngineTempSpill(t *testing.T) {
	e := New(Options{MemoryBudget: 1, Rand: rand.New(rand.NewSource(35))})
	r1, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Keys.Plan.Residency == Resident {
		t.Fatal("1-byte budget must stream even without a cache dir")
	}
	if err := e.Verify(r1.Keys.VK, r1.Proof, publicOf(cubicWitness(5, 3))); err != nil {
		t.Fatalf("streamed proof rejected: %v", err)
	}
	e.streamMu.Lock()
	spill := e.streamDir
	e.streamMu.Unlock()
	if spill == "" {
		t.Fatal("expected a temp spill directory")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("Close must remove the temp spill dir %s (stat err: %v)", spill, err)
	}
}

// TestKeyFilesArePrivate: an extraction circuit carries its watermark
// key in its coefficients, so after a streamed prove under CacheDir
// neither the directory the engine created nor any .csr, .pk or .vk in
// it may be group- or world-readable.
func TestKeyFilesArePrivate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "keys")
	e := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rand.New(rand.NewSource(38))})
	defer e.Close()
	res, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys.Plan.Residency != OutOfCore {
		t.Fatalf("1-byte budget must force the out-of-core tier, planned %s", res.Keys.Plan.Residency)
	}
	st, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if perm := st.Mode().Perm(); perm&0o077 != 0 {
		t.Errorf("cache dir mode %v: readable beyond its owner", perm)
	}
	for _, ext := range []string{".csr", ".pk", ".vk"} {
		st, err := os.Stat(filepath.Join(dir, res.Digest+ext))
		if err != nil {
			t.Fatalf("expected %s in the cache dir: %v", ext, err)
		}
		if perm := st.Mode().Perm(); perm&0o077 != 0 {
			t.Errorf("%s mode %v: readable beyond its owner", ext, perm)
		}
	}
}

// TestKeyCacheDirMadePrivate: a key-cache directory that already exists
// with group and world bits (an older build created it 0755) loses them
// when the engine writes keys into it, on the resident path and the
// out-of-core one, and when a fresh engine reads its keys back.
func TestKeyCacheDirMadePrivate(t *testing.T) {
	prove := func(dir string, budget int64) {
		t.Helper()
		if err := os.Chmod(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		e := New(Options{CacheDir: dir, MemoryBudget: budget, Rand: rand.New(rand.NewSource(45))})
		defer e.Close()
		if _, err := e.Prove(withInputs(Request{System: cubicSystem(5)}, cubicWitness(5, 3))); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if perm := st.Mode().Perm(); perm != 0o700 {
			t.Errorf("budget %d: cache dir made 0755 is %v after a prove, want 0700", budget, perm)
		}
	}
	for _, budget := range []int64{0, 1} {
		dir := filepath.Join(t.TempDir(), "keys")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		prove(dir, budget) // sets up and writes the keys
		prove(dir, budget) // reads them back
	}
}
