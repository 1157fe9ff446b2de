package groth16

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// Tests of the prover's schedule: one row walk, then the quotient lane
// beside the witness lane, then a join that nothing escapes.

// spill copies a witness into a fresh spill store under dir.
func spill(t *testing.T, dir string, witness []fr.Element) *r1cs.WitnessFile {
	t.Helper()
	wf, err := r1cs.NewWitnessFile(dir, len(witness), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wf.Close() })
	for i := range witness {
		wf.Set(uint32(i), &witness[i])
	}
	if err := wf.Flush(); err != nil {
		t.Fatal(err)
	}
	return wf
}

// residency is one way of handing the fixture's circuit to the prover.
type residency struct {
	name  string
	prove func(witness []fr.Element, rng io.Reader, sc ...obs.Scope) (*Proof, error)
}

// residencies returns the three residencies of f; the out-of-core one
// spills the witness it is given.
func (f *residencyFixture) residencies(t *testing.T) []residency {
	return []residency{
		{"resident", func(w []fr.Element, rng io.Reader, sc ...obs.Scope) (*Proof, error) {
			return Prove(f.sys, f.pk, w, rng, sc...)
		}},
		{"streamed key", func(w []fr.Element, rng io.Reader, sc ...obs.Scope) (*Proof, error) {
			return Prove(f.sys, f.spk, w, rng, sc...)
		}},
		{"out of core", func(w []fr.Element, rng io.Reader, sc ...obs.Scope) (*Proof, error) {
			return ProveSpilled(f.csf, f.spk, spill(t, t.TempDir(), w), rng, sc...)
		}},
	}
}

// setHooks installs the schedule's test seams for the rest of the test.
func setHooks(t *testing.T, rows func(int), quotientLane func(*rowEvals)) {
	t.Helper()
	testHookRows, testHookQuotientLane = rows, quotientLane
	t.Cleanup(func() { testHookRows, testHookQuotientLane = nil, nil })
}

// checkNothingLeft asserts a prove left no disk vector in dir and no
// goroutine beyond base.
func checkNothingLeft(t *testing.T, dir string, base int) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "zkrownn-vec-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("prove left disk vectors behind: %v", left)
	}
	// The join waits for both lanes, so the count is already back; the
	// grace period only absorbs unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines: %d before the prove, %d after", base, n)
	}
}

// drawCounter counts the bytes drawn from a seeded stream and runs
// onFirst, if set, at the first draw — which the prover makes after its
// row walk and before its lanes fork.
type drawCounter struct {
	r       io.Reader
	n       int
	onFirst func()
}

func (c *drawCounter) Read(p []byte) (int, error) {
	if c.n == 0 && c.onFirst != nil {
		c.onFirst()
	}
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestProveLanes: a Chrome trace of a prove shows the schedule — in
// every residency any two spans on one lane are nested or disjoint, the
// quotient and the Z-query MSM record on a lane of their own, and with
// two cores the quotient's interval intersects the witness MSMs'.
func TestProveLanes(t *testing.T) {
	f := newResidencyFixture(t, 1<<11)
	f.spk.Chunk = 256
	for _, r := range f.residencies(t) {
		tr := obs.NewTrace()
		if _, err := r.prove(f.witness, rand.New(rand.NewSource(841)), tr.Scope("")); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		evs := tr.Events()
		end := func(ev obs.Event) time.Duration { return ev.Start + ev.Dur }
		for i, a := range evs {
			for _, b := range evs[i+1:] {
				if a.Lane != b.Lane {
					continue
				}
				disjoint := end(a) <= b.Start || end(b) <= a.Start
				nested := (a.Start <= b.Start && end(b) <= end(a)) || (b.Start <= a.Start && end(a) <= end(b))
				if !disjoint && !nested {
					t.Errorf("%s: lane %d: %q [%v, %v] and %q [%v, %v] partially overlap",
						r.name, a.Lane, a.Name, a.Start, end(a), b.Name, b.Start, end(b))
				}
			}
		}

		var quotient, z *obs.Event
		witnessStart, witnessEnd := time.Duration(math.MaxInt64), time.Duration(0)
		for i, ev := range evs {
			switch {
			case ev.Name == "quotient" || ev.Name == "ooc/quotient":
				quotient = &evs[i]
			case ev.Name == "msm/Z" || ev.Name == "stream/Z/msm":
				z = &evs[i]
			case ev.Lane == 0 && (strings.HasPrefix(ev.Name, "msm/") || strings.HasPrefix(ev.Name, "stream/")):
				witnessStart, witnessEnd = min(witnessStart, ev.Start), max(witnessEnd, end(ev))
			}
		}
		if quotient == nil || z == nil || witnessEnd == 0 {
			t.Fatalf("%s: trace lacks a quotient, Z-query or witness-MSM span", r.name)
		}
		if quotient.Lane == 0 || z.Lane != quotient.Lane {
			t.Errorf("%s: quotient on lane %d, Z query on lane %d; want one lane that is not the main one", r.name, quotient.Lane, z.Lane)
		}
		if par.Workers() >= 2 && (end(*quotient) <= witnessStart || witnessEnd <= quotient.Start) {
			t.Errorf("%s: quotient [%v, %v] does not overlap the witness MSMs [%v, %v]",
				r.name, quotient.Start, end(*quotient), witnessStart, witnessEnd)
		}
	}
}

// TestProveEvaluatesRowsOnce is the work gate of the merged row walk, by
// count: each row of A, B and C is evaluated once per prove in every
// residency, and a spilled witness is read through its page cache only
// by that walk — one Get per matrix term plus the constant wire, all of
// them before the first byte of randomness is drawn, so none after the
// lanes fork.
func TestProveEvaluatesRowsOnce(t *testing.T) {
	f := newResidencyFixture(t, 64)
	rows := 0
	setHooks(t, func(n int) { rows += n }, nil)
	want := 3 * f.sys.NbConstraints()
	for _, r := range f.residencies(t) {
		rows = 0
		if _, err := r.prove(f.witness, rand.New(rand.NewSource(851))); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if rows != want {
			t.Errorf("%s: %d matrix rows evaluated in one prove, want %d", r.name, rows, want)
		}
	}

	wf := spill(t, t.TempDir(), f.witness)
	var atDraw uint64
	rng := &drawCounter{r: rand.New(rand.NewSource(851)), onFirst: func() { atDraw = wf.Gets() }}
	if _, err := ProveSpilled(f.csf, f.spk, wf, rng); err != nil {
		t.Fatal(err)
	}
	terms := uint64(f.sys.A.NbTerms() + f.sys.B.NbTerms() + f.sys.C.NbTerms())
	if atDraw != terms+1 || wf.Gets() != atDraw {
		t.Errorf("page-cache reads: %d when randomness was drawn, %d after the prove; want %d (one per matrix term + the constant wire) both times",
			atDraw, wf.Gets(), terms+1)
	}
}

// TestUnsatisfiedWitnessRejectedFirst: a witness that violates a row, or
// whose constant wire is not one, is rejected by the row walk — before a
// byte of randomness is drawn and before any lane starts — with the row
// named, in every residency.
func TestUnsatisfiedWitnessRejectedFirst(t *testing.T) {
	f := newResidencyFixture(t, 64)
	lanes := 0
	setHooks(t, nil, func(*rowEvals) { lanes++ })
	bad := slices.Clone(f.witness)
	bad[40].SetUint64(12345) // the output of row 37, an input of row 38
	notOne := slices.Clone(f.witness)
	notOne[0].SetUint64(2)
	for _, r := range f.residencies(t) {
		for _, c := range []struct {
			witness []fr.Element
			want    string
		}{
			{bad, "groth16: witness does not satisfy constraint 37"},
			{notOne, "constant wire is not one"},
		} {
			rng := &drawCounter{r: rand.New(rand.NewSource(861))}
			_, err := r.prove(c.witness, rng)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want %q", r.name, err, c.want)
			}
			if rng.n != 0 {
				t.Errorf("%s: %d bytes of randomness drawn for a rejected witness", r.name, rng.n)
			}
		}
	}
	if lanes != 0 {
		t.Errorf("the quotient lane started %d times for rejected witnesses", lanes)
	}
}

// TestRowWalkReportsLowestViolation pins first-violation semantics where
// finding order and row order differ: with violations at rows i < j in
// different row windows, in different row blocks of one window, and in
// different par.Range chunks of one block, the walk names i — for a
// resident and for a spilled witness.
func TestRowWalkReportsLowestViolation(t *testing.T) {
	const n = 2000
	sys := chainSystem(n)
	bad := chainWitness(n, 3)
	bad[300+3].SetUint64(7)  // violates rows 300 and 301
	bad[1500+3].SetUint64(7) // violates rows 1500 and 1501
	scratch := make([]fr.Element, 3*(n+1))
	window := func(_, rows int) (a, b, c []fr.Element) {
		return scratch[:rows], scratch[n+1:][:rows], scratch[2*(n+1):][:rows]
	}
	for _, w := range []*witnessSrc{{mem: bad}, {file: spill(t, t.TempDir(), bad)}} {
		// 3 terms a row: 100-row windows put the violations 12 windows
		// apart; one window puts them in different halves of a 2-worker
		// Range (and in one serial scan for the spilled witness).
		// 256-row blocks put them in the second and sixth blocks.
		for _, maxTerms := range []int{300, math.MaxInt} {
			for _, maxRows := range []int{256, math.MaxInt} {
				committed := 0
				err := walkRows(sys, w, maxTerms, maxRows, obs.Scope{}, window,
					func(start int, a, _, _ []fr.Element) error { committed = start + len(a); return nil })
				if err == nil || err.Error() != "groth16: witness does not satisfy constraint 300" {
					t.Errorf("resident=%v maxTerms=%d maxRows=%d: error %v, want constraint 300 named", w.mem != nil, maxTerms, maxRows, err)
				}
				if committed > 300 {
					t.Errorf("resident=%v maxTerms=%d maxRows=%d: rows up to %d kept after the violation at 300", w.mem != nil, maxTerms, maxRows, committed)
				}
			}
		}
	}
}

// gatedReader serves a raw proving key; a read inside [lo, hi) first
// signals reading, then waits for gate, then fails if fail is set.
type gatedReader struct {
	r       io.ReaderAt
	lo, hi  int64
	reading chan struct{}
	once    sync.Once
	gate    <-chan struct{}
	fail    error
}

func (g *gatedReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= g.lo && off < g.hi {
		g.once.Do(func() { close(g.reading) })
		<-g.gate
		if g.fail != nil {
			return 0, g.fail
		}
	}
	return g.r.ReadAt(p, off)
}

// TestProveFailureJoins: when one lane fails while the other is at work,
// prove waits for both, returns the error, and leaves no disk vector and
// no goroutine behind. The witness lane fails on a point-source read
// (held until the quotient lane is running) and on a scalar-source read;
// the quotient lane fails on a disk-vector I/O error and on the degree
// check (a planted non-vanishing top coefficient), each planted once the
// witness lane has started streaming its first query section.
func TestProveFailureJoins(t *testing.T) {
	f := newResidencyFixture(t, 256)
	dir := t.TempDir()
	f.spk.SpillDir = dir
	keyReader := f.spk.r
	gateSectionA := func(t *testing.T, gate <-chan struct{}, fail error) *gatedReader {
		g := &gatedReader{r: keyReader, lo: f.spk.secA.off, hi: f.spk.secB1.off,
			reading: make(chan struct{}), gate: gate, fail: fail}
		f.spk.r = g
		t.Cleanup(func() { f.spk.r = keyReader })
		return g
	}
	rng := func() io.Reader { return rand.New(rand.NewSource(871)) }

	t.Run("witness lane: point source", func(t *testing.T) {
		base := runtime.NumGoroutine()
		boom := errors.New("key file gone")
		quotientRunning := make(chan struct{})
		gateSectionA(t, quotientRunning, boom)
		setHooks(t, nil, func(*rowEvals) { close(quotientRunning) })
		if _, err := Prove(f.sys, f.spk, f.witness, rng()); !errors.Is(err, boom) {
			t.Errorf("error %v, want the point source's", err)
		}
		checkNothingLeft(t, dir, base)
	})

	t.Run("witness lane: scalar source", func(t *testing.T) {
		base := runtime.NumGoroutine()
		wf := spill(t, t.TempDir(), f.witness)
		// The store disappears between the row walk and the fork.
		r := &drawCounter{r: rng(), onFirst: func() { wf.Close() }}
		if _, err := ProveSpilled(f.csf, f.spk, wf, r); err == nil || !strings.Contains(err.Error(), "scalar read") {
			t.Errorf("error %v, want the scalar source's", err)
		}
		checkNothingLeft(t, dir, base)
	})

	// plant runs on the quotient lane once the witness lane is streaming.
	quotientFails := func(t *testing.T, plant func(ev *rowEvals), prove func() (*Proof, error), want string) {
		base := runtime.NumGoroutine()
		open := make(chan struct{})
		close(open)
		g := gateSectionA(t, open, nil)
		setHooks(t, nil, func(ev *rowEvals) { <-g.reading; plant(ev) })
		if _, err := prove(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v, want %q", err, want)
		}
		checkNothingLeft(t, dir, base)
	}
	streamed := func() (*Proof, error) { return Prove(f.sys, f.spk, f.witness, rng()) }

	t.Run("quotient lane: disk vector I/O", func(t *testing.T) {
		quotientFails(t, func(ev *rowEvals) { ev.file[1].Close() }, streamed, "file already closed")
	})
	// The out-of-core transforms keep their sub-vectors in the second half
	// of the vector's own file: losing it after A's first transform loses
	// them, and the next transform's split fails on the closed file.
	t.Run("quotient lane: sub-vector file closed between transforms", func(t *testing.T) {
		steps := 0
		testHookQuotientStep = func(ev *rowEvals) {
			if steps++; steps == 1 {
				ev.file[0].Close()
			}
		}
		t.Cleanup(func() { testHookQuotientStep = nil })
		quotientFails(t, func(*rowEvals) {}, streamed, "file already closed")
	})
	// h feeds the Z-query MSM's scalars chunk by chunk; the file goes away
	// once the run's buckets hold the first chunk.
	t.Run("quotient lane: h read fails after the Z buckets took chunks", func(t *testing.T) {
		testHookHRead = func(hf *poly.VecFile, start int) {
			if start > 0 {
				hf.Close()
			}
		}
		t.Cleanup(func() { testHookHRead = nil })
		quotientFails(t, func(*rowEvals) {}, streamed, "scalar read at 16")
	})
	t.Run("quotient lane: degree check, out of core", func(t *testing.T) {
		quotientFails(t, func(ev *rowEvals) {
			var c [1]fr.Element
			if err := ev.file[2].ReadAt(c[:], 0); err != nil {
				t.Error(err)
			}
			c[0].Add(&c[0], &c[0]) // row 0: C·w = 9 → 18
			if err := ev.file[2].WriteAt(c[:], 0); err != nil {
				t.Error(err)
			}
		}, streamed, "quotient has unexpected degree")
	})
	t.Run("quotient lane: degree check, resident", func(t *testing.T) {
		base := runtime.NumGoroutine()
		setHooks(t, nil, func(ev *rowEvals) { ev.mem[2][0].Add(&ev.mem[2][0], &ev.mem[2][0]) })
		if _, err := Prove(f.sys, f.pk, f.witness, rng()); err == nil || !strings.Contains(err.Error(), "quotient has unexpected degree") {
			t.Errorf("error %v, want the degree check's", err)
		}
		checkNothingLeft(t, dir, base)
	})

	// (c) A panic on the quotient lane resurfaces in the caller's
	// recover, after the witness lane has finished.
	t.Run("quotient lane: panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		setHooks(t, nil, func(*rowEvals) { panic("boom on the quotient lane") })
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			streamed()
		}()
		p, ok := recovered.(*par.Panic)
		if !ok || p.Value != "boom on the quotient lane" || !strings.Contains(string(p.Stack), "schedule_test.go") {
			t.Errorf("recovered %v, want the quotient lane's panic with its stack", recovered)
		}
		checkNothingLeft(t, dir, base)
	})
}
