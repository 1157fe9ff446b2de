package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/diskfile"
	"zkrownn/internal/r1cs"
)

// TestPlanResidency pins the policy — one comparison, raw key against
// budget — at every boundary on the sizes of a compiled circuit. A budget
// between the circuit's CSR + witness and its raw key plans out-of-core:
// the key never streams beside a resident CSR and witness.
func TestPlanResidency(t *testing.T) {
	sys := cubicSystem(5)
	raw, rest := rawKeySize(sys), csrAndWitness(sys)
	if rest <= 1 || rest >= raw-1 {
		t.Fatalf("raw key %d B, CSR + witness %d B: want 1 < CSR + witness < raw key - 1, or the boundaries below collide", raw, rest)
	}
	if got := rawKeySize(sys.StripForSolve()); got != raw {
		t.Fatalf("solver-only copy measures %d B, the full system %d B", got, raw)
	}
	for _, tc := range []struct {
		name   string
		budget int64
		want   Residency
		reason string
	}{
		{"unset", 0, Resident, "no memory budget"},
		{"negative", -5, Resident, "no memory budget"},
		{"one byte", 1, OutOfCore, "raw key"},
		{"CSR + witness - 1", rest - 1, OutOfCore, "raw key"},
		{"CSR + witness", rest, OutOfCore, "raw key"},
		{"raw key - 1", raw - 1, OutOfCore, "raw key"},
		{"raw key", raw, Resident, "fits"},
		{"raw key + 1", raw + 1, Resident, "fits"},
		{"huge", 1 << 50, Resident, "fits"},
	} {
		p := planResidency(raw, tc.budget)
		if p.Residency != tc.want || !strings.Contains(p.Reason, tc.reason) {
			t.Errorf("budget %s (%d): planned %s because %q, want %s because of the %s", tc.name, tc.budget, p.Residency, p.Reason, tc.want, tc.reason)
		}
		wantPages := int64(0) // only a paged witness has a page cache: a quarter of the budget
		if tc.want == OutOfCore {
			wantPages = tc.budget / 4
		}
		if p.WitnessPageBytes != wantPages {
			t.Errorf("budget %s: witness page cache %d bytes, want %d", tc.name, p.WitnessPageBytes, wantPages)
		}
	}

	// Over random sizes: a smaller budget never moves a circuit toward
	// Resident, and every plan says why.
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 2000; i++ {
		raw := rng.Int63n(1 << 20)
		hi := rng.Int63n(1<<21) + 1
		lo := rng.Int63n(hi) + 1
		pHi, pLo := planResidency(raw, hi), planResidency(raw, lo)
		if pLo.Residency < pHi.Residency {
			t.Fatalf("raw key %d B: budget %d plans %s but the smaller %d plans %s", raw, hi, pHi.Residency, lo, pLo.Residency)
		}
		if pHi.Reason == "" || pLo.Reason == "" {
			t.Fatalf("raw key %d B, budgets %d and %d: a plan without a reason", raw, hi, lo)
		}
	}
}

// csrAndWitness is what a circuit's CSR section file and one full wire
// assignment take: a budget between it and the raw key must still plan
// out-of-core, the key never streaming beside a resident CSR and witness.
func csrAndWitness(sys *r1cs.CompiledSystem) int64 {
	return r1cs.CSRRawSizeBytes(sys) + int64(sys.NbWires)*int64(8*fr.Limbs)
}

// The cubicSystem(5) circuit under an engine seeded with 41: the SHA-256
// of the <digest>.pk file it writes, and the compressed A and K points of
// the first proof, with witness cubicWitness(5, 3), in both residencies.
const (
	pinnedPK  = "1eb7bde07dfa542f7a4b7ba53aae78e357cfcc6491b6104231023394013b52db"
	pinnedAr  = "d23e027e76e06ccb6092b04054caade3228c9a245e0433a3e50f97f70f3dbeee"
	pinnedKrs = "82003175239f6456f3aa0f4d92dda25bd7b1665ce5b495026f64c3009c7ec1ee"
)

// TestResidencyTiers runs the engine in both residencies on one circuit,
// with budgets computed from the circuit's own sizes: the raw key itself
// (resident), and CSR + witness, which lies below the raw key and so
// proves out-of-core. Each must prove as planned, count as planned, keep
// on disk what its plan says, serve a digest-only repeat and a restart,
// and — same seeds — produce the other's proof bytes and key files,
// which are the pinned ones.
func TestResidencyTiers(t *testing.T) {
	sys := cubicSystem(5)
	raw, rest := rawKeySize(sys), csrAndWitness(sys)
	asg := inputsOf(cubicWitness(5, 3))
	asg7 := inputsOf(cubicWitness(5, 7))

	// SHA-256 of <digest>.pk, .vk and .csr as written by an engine seeded
	// with 41 (the .csr out-of-core only): .vk and .csr as at 725543a, .pk
	// the same key in the raw key's version-2 encoding.
	pinned := map[string]string{
		".pk":  pinnedPK,
		".vk":  "8522f962d0d421dc85050889ed8fc574ab68021125d6fd013e0fa298f76bdf43",
		".csr": "69f2702a2069301f05d8337c53e3aa457cf8b84dd8a49d37b50fe7970c022982",
	}
	var first []byte
	for _, tc := range []struct {
		want   Residency
		budget int64
	}{
		{Resident, raw},
		{OutOfCore, rest},
	} {
		dir := t.TempDir()
		opts := Options{CacheDir: dir, MemoryBudget: tc.budget, Rand: rand.New(rand.NewSource(41))}
		e := New(opts)
		defer e.Close()
		r1, err := e.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
		if err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if r1.Keys.Plan.Residency != tc.want {
			t.Fatalf("budget %d: planned %s (%s), want %s", tc.budget, r1.Keys.Plan.Residency, r1.Keys.Plan.Reason, tc.want)
		}
		if err := e.Verify(r1.Keys.VK, r1.Proof, r1.PublicInputs); err != nil {
			t.Fatalf("%s: proof rejected: %v", tc.want, err)
		}
		if spilled := e.Stats().SpillProves == 1; spilled != (tc.want == OutOfCore) {
			t.Errorf("%s: witness spilled = %v", tc.want, spilled)
		}

		// Same seeds, same proof, whatever is resident.
		var buf bytes.Buffer
		if _, err := r1.Proof.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("%s: proof bytes differ from the resident tier's", tc.want)
		}
		if ar, krs := fmt.Sprintf("%x", r1.Proof.Ar.Bytes()), fmt.Sprintf("%x", r1.Proof.Krs.Bytes()); ar != pinnedAr || krs != pinnedKrs {
			t.Errorf("%s: proof (A %s, K %s) is not the pinned one for these seeds", tc.want, ar, krs)
		}

		// Same files under the same names, the CSR file iff out-of-core.
		for ext, want := range pinned {
			raw, err := os.ReadFile(filepath.Join(dir, r1.Digest+ext))
			if ext == ".csr" && tc.want != OutOfCore {
				if !os.IsNotExist(err) {
					t.Errorf("%s: a CSR file was written (stat err %v)", tc.want, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.want, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
				t.Errorf("%s: %s hashes to %s, pinned %s", tc.want, ext, got, want)
			}
		}

		// A digest-only repeat is served from memory in every tier.
		r2, err := e.Prove(Request{Digest: r1.Digest, Public: asg7.Public, Secret: asg7.Secret})
		if err != nil {
			t.Fatalf("%s: digest-only prove: %v", tc.want, err)
		}
		if !r2.CacheHit || r2.Keys.Plan != r1.Keys.Plan {
			t.Errorf("%s: digest-only prove hit=%v under plan %+v, want the cached plan", tc.want, r2.CacheHit, r2.Keys.Plan)
		}
		if err := e.Verify(r1.Keys.VK, r2.Proof, r2.PublicInputs); err != nil {
			t.Fatalf("%s: digest-only proof rejected: %v", tc.want, err)
		}
		spilled := uint64(0)
		if tc.want == OutOfCore {
			spilled = 2
		}
		if st := e.Stats(); st.Setups != 1 || st.Proves != 2 || st.StreamProves != spilled || st.SpillProves != spilled {
			t.Errorf("%s: stats %+v, want 1 setup, 2 proves, %d streamed and spilled", tc.want, st, spilled)
		}

		// A restart on the directory is a disk hit planned the same way.
		e2 := New(opts)
		defer e2.Close()
		r3, err := e2.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
		if err != nil {
			t.Fatalf("%s: restart: %v", tc.want, err)
		}
		if st := e2.Stats(); !r3.CacheHit || st.DiskHits != 1 || st.Setups != 0 || r3.Keys.Plan != r1.Keys.Plan {
			t.Errorf("%s: restart hit=%v, stats %+v, plan %+v", tc.want, r3.CacheHit, st, r3.Keys.Plan)
		}
		if err := e2.Verify(r1.Keys.VK, r3.Proof, r3.PublicInputs); err != nil {
			t.Fatalf("%s: restarted proof rejected: %v", tc.want, err)
		}
	}
}

// TestRawKeyVersionOneIsAMiss puts in the disk tier a .pk whose frame is
// sound but whose payload is a version-1 raw key — the cache file of an
// older build. In the resident and the out-of-core tier the load must
// count as exactly one miss and one setup, never a disk hit, rewrite the
// file as the pinned version-2 key, and prove the pinned proof.
func TestRawKeyVersionOneIsAMiss(t *testing.T) {
	asg := inputsOf(cubicWitness(5, 3))
	for _, budget := range []int64{0, 1} {
		dir := t.TempDir()
		opts := Options{CacheDir: dir, MemoryBudget: budget, Rand: rand.New(rand.NewSource(41))}
		e := New(opts)
		r1, err := e.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		pkPath := filepath.Join(dir, r1.Digest+".pk")
		f, payload, err := diskfile.OpenFramed(pkPath, keyFileMagic)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := io.ReadAll(payload)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(v1[4:8], 1)
		if _, err := diskfile.WriteFramed(pkPath, keyFileMagic, func(w io.Writer) error {
			_, err := w.Write(v1)
			return err
		}); err != nil {
			t.Fatal(err)
		}

		opts.Rand = rand.New(rand.NewSource(41))
		e2 := New(opts)
		defer e2.Close()
		r2, err := e2.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if st, misses := e2.Stats(), e2.m.keycacheMisses.Value(); r2.CacheHit || st.DiskHits != 0 || st.Setups != 1 || misses != 1 {
			t.Errorf("budget %d: hit=%v, %d disk hits, %d setups, %d misses; want one miss and one setup", budget, r2.CacheHit, st.DiskHits, st.Setups, misses)
		}
		raw, err := os.ReadFile(pkPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != pinnedPK {
			t.Errorf("budget %d: rewritten .pk hashes to %s, pinned %s", budget, got, pinnedPK)
		}
		if v := binary.LittleEndian.Uint32(raw[16+4:]); v != 2 {
			t.Errorf("budget %d: rewritten .pk holds raw key version %d, want 2", budget, v)
		}
		if ar, krs := fmt.Sprintf("%x", r2.Proof.Ar.Bytes()), fmt.Sprintf("%x", r2.Proof.Krs.Bytes()); ar != pinnedAr || krs != pinnedKrs {
			t.Errorf("budget %d: proof (A %s, K %s) is not the pinned one", budget, ar, krs)
		}
	}
}
