package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRangeCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 1000, 4096} {
		seen := make([]int32, n)
		Range(n, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestRangeZero(t *testing.T) {
	called := false
	Range(0, func(start, end int) {
		if start != end {
			called = true
		}
	})
	if called {
		t.Fatal("Range(0) must not produce non-empty chunks")
	}
}

func TestEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 256, 1000} {
		seen := make([]int32, n)
		Each(n, func(i int) {
			atomic.AddInt32(&seen[i], 1)
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestEachZero(t *testing.T) {
	Each(0, func(i int) {
		t.Fatalf("Each(0) called f(%d)", i)
	})
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want ≤ %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// twoWorkers makes Range and Each start goroutines even where the test
// binary was given one CPU's worth of GOMAXPROCS (Workers still caps at
// the machine's CPU count; on a one-CPU machine the helpers run f on
// the caller and there is no worker goroutine to test).
func twoWorkers(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: Range and Each run on the calling goroutine")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// recovered runs f and returns what it panicked with.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// checkWorkerPanic asserts r is the *Panic a helper re-raised for a
// worker that panicked with "boom": the value intact, the worker's stack
// (naming this test file) attached.
func checkWorkerPanic(t *testing.T, r any) {
	t.Helper()
	p, ok := r.(*Panic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *par.Panic", r, r)
	}
	if p.Value != "boom" {
		t.Errorf("panic value %v, want boom", p.Value)
	}
	if !strings.Contains(string(p.Stack), "par_test.go") || !strings.Contains(p.Error(), "boom") {
		t.Errorf("panic lacks the worker's stack or value:\n%s", p.Error())
	}
}

// TestWorkerPanicReachesCaller: a body that panics on a worker goroutine
// does not kill the process — the caller's recover sees the value, every
// other index still ran exactly once, and no goroutine is left behind.
func TestWorkerPanicReachesCaller(t *testing.T) {
	twoWorkers(t)
	base := runtime.NumGoroutine()
	const n = 1000

	seen := make([]int32, n)
	r := recovered(func() {
		Range(n, func(start, end int) {
			if start == 0 {
				panic("boom") // the first chunk, before it touches an index
			}
			for i := start; i < end; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
	})
	checkWorkerPanic(t, r)
	chunk := (n + Workers() - 1) / Workers()
	for i, v := range seen {
		want := int32(1)
		if i < chunk {
			want = 0
		}
		if v != want {
			t.Fatalf("Range: index %d visited %d times, want %d (the first chunk panicked)", i, v, want)
		}
	}

	clear(seen)
	r = recovered(func() {
		Each(n, func(i int) {
			if i == 7 {
				panic("boom")
			}
			atomic.AddInt32(&seen[i], 1)
		})
	})
	checkWorkerPanic(t, r)
	for i, v := range seen {
		want := int32(1)
		if i == 7 {
			want = 0
		}
		if v != want {
			t.Fatalf("Each: index %d visited %d times, want %d (index 7 panicked)", i, v, want)
		}
	}
	waitGoroutines(t, base)
}

// TestDoJoins: Do runs both tasks to completion whatever GOMAXPROCS is,
// a panic on the spawned side resurfaces on the caller's once both are
// done, and a panic on the caller's side still waits for the spawned one.
func TestDoJoins(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		var f, g bool
		Do(func() { f = true }, func() { g = true })
		if !f || !g {
			t.Errorf("GOMAXPROCS %d: Do ran f=%v g=%v", procs, f, g)
		}
		runtime.GOMAXPROCS(old)
	}

	started := make(chan struct{})
	gDone := false
	r := recovered(func() {
		Do(func() { close(started); panic("boom") },
			func() { <-started; gDone = true })
	})
	checkWorkerPanic(t, r)
	if !gDone {
		t.Error("the caller's task did not finish before the spawned task's panic resurfaced")
	}

	release := make(chan struct{})
	var fDone atomic.Bool
	go func() { time.Sleep(20 * time.Millisecond); close(release) }()
	r = recovered(func() {
		Do(func() { <-release; fDone.Store(true) }, func() { panic("caller side") })
	})
	if r != "caller side" {
		t.Errorf("recovered %v, want the caller-side panic unchanged", r)
	}
	if !fDone.Load() {
		t.Error("Do let a caller-side panic through before the spawned task finished")
	}

	// A nested helper's *Panic passes through unwrapped.
	r = recovered(func() {
		Do(func() { Do(func() { panic("boom") }, func() {}) }, func() {})
	})
	checkWorkerPanic(t, r)
	waitGoroutines(t, base)
}
