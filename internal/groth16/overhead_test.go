package groth16

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// chainSystem builds a squaring chain of n constraints — wire 2 is the
// secret x, each constraint squares the previous intermediate, and the
// last value is copied to the public output. Big enough chains give the
// prover a realistic FFT/MSM workload for overhead measurement.
func chainSystem(n int) *r1cs.CompiledSystem {
	T := r1cstest.T
	rows := &r1cstest.Rows{NbPublic: 2, NbWires: n + 3}
	for i := 0; i < n; i++ {
		rows.Rows = append(rows.Rows, r1cstest.Row{
			A: []r1cstest.Term{T(i+2, 1)}, B: []r1cstest.Term{T(i+2, 1)}, C: []r1cstest.Term{T(i+3, 1)},
		})
	}
	// last intermediate · 1 = out
	rows.Rows = append(rows.Rows, r1cstest.Row{
		A: []r1cstest.Term{T(n+2, 1)}, B: []r1cstest.Term{T(0, 1)}, C: []r1cstest.Term{T(1, 1)},
	})
	return mustCSR(rows)
}

func chainWitness(n int, x uint64) []fr.Element {
	w := make([]fr.Element, n+3)
	w[0].SetOne()
	w[2].SetUint64(x)
	for i := 0; i < n; i++ {
		w[i+3].Mul(&w[i+2], &w[i+2])
	}
	w[1] = w[n+2]
	return w
}

// residencyFixture is one circuit with everything each residency of the
// prover needs: the key in memory and the same key streamed from its raw
// encoding in 16-point chunks, the constraint system resident and as a
// CSR section file, the witness as a slice and in a spill store.
type residencyFixture struct {
	sys     *r1cs.CompiledSystem
	csf     *r1cs.CompiledSystemFile
	pk      *ProvingKey
	spk     *StreamedProvingKey
	vk      *VerifyingKey
	witness []fr.Element
	wf      *r1cs.WitnessFile
}

func newResidencyFixture(t *testing.T, n int) *residencyFixture {
	t.Helper()
	f := &residencyFixture{sys: chainSystem(n), witness: chainWitness(n, 3)}
	var err error
	if f.pk, f.vk, err = Setup(f.sys, rand.New(rand.NewSource(820))); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := f.pk.WriteRawTo(&raw); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f.spk = openStreamed(t, raw.Bytes(), 16)
	f.spk.SpillDir = dir
	csPath := filepath.Join(dir, "sys.csr")
	if err := r1cs.WriteCompiledSystemFile(csPath, f.sys); err != nil {
		t.Fatal(err)
	}
	if f.csf, err = r1cs.OpenCompiledSystemFile(csPath); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.csf.Close() })
	f.wf = spill(t, dir, f.witness)
	return f
}

// TestProveTracedMatchesProve pins that tracing and residency are
// observational: on each of the three residencies — everything resident;
// streamed key with a resident witness; streamed key, CSR file and
// spilled witness — and at GOMAXPROCS 1, 2 and 4 the traced prove and
// the untraced prove return the proof bytes of the untraced in-memory
// prove under the same seeded rng, and a traced prove records spans
// covering every prover phase.
func TestProveTracedMatchesProve(t *testing.T) {
	f := newResidencyFixture(t, 64)
	rng := func() *rand.Rand { return rand.New(rand.NewSource(821)) }
	proofBytes := func(name string, proof *Proof, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := proof.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	residencies := f.residencies(t)
	phases := map[string][]string{
		"resident":     {"prove/rows", "prove/recode", "quotient", "msm/A", "msm/B1", "msm/B2", "msm/K", "msm/Z"},
		"streamed key": {"ooc/rows", "prove/recode", "ooc/quotient", "stream/A/msm", "stream/B1/msm", "stream/B2/msm", "stream/K/msm", "stream/Z/msm"},
		"out of core":  {"ooc/rows", "csr/row-window", "witness/stream", "ooc/quotient", "stream/A/read", "stream/Z/recode"},
	}
	proof, err := residencies[0].prove(f.witness, rng())
	want := proofBytes("resident, untraced", proof, err)
	if err := Verify(f.vk, proof, f.witness[1:f.sys.NbPublic]); err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
	// The schedule is the same two lanes at any GOMAXPROCS, and how many
	// cores the lanes and their MSM cells land on never reaches the bytes.
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, r := range residencies {
			proof, err := r.prove(f.witness, rng())
			if got := proofBytes(r.name+", untraced", proof, err); !bytes.Equal(got, want) {
				t.Errorf("%s, GOMAXPROCS %d: untraced proof bytes diverge from the in-memory prover", r.name, procs)
			}
			tr := obs.NewTrace()
			proof, err = r.prove(f.witness, rng(), tr.Scope(""))
			if got := proofBytes(r.name+", traced", proof, err); !bytes.Equal(got, want) {
				t.Errorf("%s, GOMAXPROCS %d: traced proof bytes diverge from the in-memory prover", r.name, procs)
			}
			totals := tr.Totals()
			for _, phase := range phases[r.name] {
				if _, ok := totals[phase]; !ok {
					t.Errorf("%s: traced prove recorded no %q span (got %d span names)", r.name, phase, len(totals))
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}

	vtr := obs.NewTrace()
	if err := Verify(f.vk, proof, f.witness[1:f.sys.NbPublic], vtr.Scope("")); err != nil {
		t.Fatalf("traced verify rejected: %v", err)
	}
	if _, ok := vtr.Totals()["verify/pairing"]; !ok {
		t.Error("traced verify recorded no verify/pairing span")
	}
}

// spanVocabulary is every span name one traced in-memory prove, one
// traced out-of-core prove and one traced verify record, with the
// numbers after the second "/" (window runs, chunk ids, transform sizes)
// replaced by "#". It was captured before tracing became an argument,
// and `phase_ms` keys in the bench JSON, the CI trace-coverage asserts
// and anyone's saved Chrome traces are written in it: a change to this
// list is a change to what they mean.
var spanVocabulary = []string{
	"csr/row-window",
	"msm/A",
	"msm/A/w#-#/c#",
	"msm/B1",
	"msm/B1/w#-#/c#",
	"msm/B2",
	"msm/B2/w#-#/c#",
	"msm/K",
	"msm/K/w#-#/c#",
	"msm/Z",
	"msm/Z/w#-#/c#",
	"ooc/divide-z",
	"ooc/fft-coset-A",
	"ooc/fft-coset-A/combine#",
	"ooc/fft-coset-A/mem#x#",
	"ooc/fft-coset-A/split#",
	"ooc/fft-coset-B",
	"ooc/fft-coset-B/combine#",
	"ooc/fft-coset-B/mem#x#",
	"ooc/fft-coset-B/split#",
	"ooc/ifft-A",
	"ooc/ifft-A/combine#",
	"ooc/ifft-A/mem#x#",
	"ooc/ifft-A/split#",
	"ooc/ifft-B",
	"ooc/ifft-B/combine#",
	"ooc/ifft-B/mem#x#",
	"ooc/ifft-B/split#",
	"ooc/ifft-C",
	"ooc/ifft-C/combine#",
	"ooc/ifft-C/mem#x#",
	"ooc/ifft-C/split#",
	"ooc/ifft-coset",
	"ooc/ifft-coset/combine#",
	"ooc/ifft-coset/mem#x#",
	"ooc/ifft-coset/split#",
	"ooc/mul-ab",
	"ooc/quotient",
	"ooc/rows",
	"prove/recode",
	"prove/rows",
	"quotient",
	"quotient/divide-z",
	"quotient/fft-coset-A",
	"quotient/fft-coset-A/len#",
	"quotient/fft-coset-B",
	"quotient/fft-coset-B/len#",
	"quotient/ifft-A",
	"quotient/ifft-A/len#",
	"quotient/ifft-B",
	"quotient/ifft-B/len#",
	"quotient/ifft-C",
	"quotient/ifft-C/len#",
	"quotient/ifft-coset",
	"quotient/ifft-coset/len#",
	"quotient/mul-ab",
	"stream/A/msm",
	"stream/A/read",
	"stream/A/recode",
	"stream/B1/msm",
	"stream/B1/read",
	"stream/B1/recode",
	"stream/B2/msm",
	"stream/B2/read",
	"stream/B2/recode",
	"stream/K/msm",
	"stream/K/read",
	"stream/K/recode",
	"stream/Z/msm",
	"stream/Z/read",
	"stream/Z/recode",
	"verify/msm-ic",
	"verify/pairing",
	"witness/stream",
}

func TestSpanVocabulary(t *testing.T) {
	f := newResidencyFixture(t, 64)
	tr := obs.NewTrace()
	proof, err := Prove(f.sys, f.pk, f.witness, rand.New(rand.NewSource(831)), tr.Scope(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProveSpilled(f.csf, f.spk, f.wf, rand.New(rand.NewSource(831)), tr.Scope("")); err != nil {
		t.Fatal(err)
	}
	if err := Verify(f.vk, proof, f.witness[1:f.sys.NbPublic], tr.Scope("")); err != nil {
		t.Fatal(err)
	}
	digits := regexp.MustCompile(`[0-9]+`)
	seen := map[string]bool{}
	for name := range tr.Totals() {
		segs := strings.Split(name, "/")
		for i := 2; i < len(segs); i++ {
			segs[i] = digits.ReplaceAllString(segs[i], "#")
		}
		seen[strings.Join(segs, "/")] = true
	}
	got := make([]string, 0, len(seen))
	for name := range seen {
		got = append(got, name)
	}
	sort.Strings(got)
	if !slices.Equal(got, spanVocabulary) {
		t.Errorf("span vocabulary changed:\n got  %q\n want %q", got, spanVocabulary)
	}
}

// BenchmarkProveTelemetryOff / BenchmarkProveTelemetryOn are the
// telemetry overhead guard: compare ns/op with tracing disabled (the
// production default — nil-trace fast path) against a live span
// recorder. The instrumentation budget is ≤1% prove-time overhead;
// rerun both after touching the hot paths:
//
//	go test ./internal/groth16/ -run xx -bench 'ProveTelemetry' -benchtime 10x
func BenchmarkProveTelemetryOff(b *testing.B) {
	benchmarkProveTelemetry(b, false)
}

func BenchmarkProveTelemetryOn(b *testing.B) {
	benchmarkProveTelemetry(b, true)
}

func benchmarkProveTelemetry(b *testing.B, traced bool) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(821))
	sys := chainSystem(n)
	pk, _, err := Setup(sys, rng)
	if err != nil {
		b.Fatal(err)
	}
	w := chainWitness(n, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace()
		}
		if _, err := Prove(sys, pk, w, rng, tr.Scope("")); err != nil {
			b.Fatal(err)
		}
	}
}
