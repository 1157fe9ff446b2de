package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	outer := tr.Span("prove")
	time.Sleep(time.Millisecond)
	inner := tr.Span("prove/msm-a")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Completion order: inner ends first.
	if evs[0].Name != "prove/msm-a" || evs[1].Name != "prove" {
		t.Errorf("event order = %q, %q", evs[0].Name, evs[1].Name)
	}
	if evs[1].Start > evs[0].Start {
		t.Error("outer span started after inner")
	}
	if evs[1].Dur < evs[0].Dur {
		t.Error("outer span shorter than nested inner span")
	}
	tot := tr.Totals()
	if tot["prove"] < 2*time.Millisecond {
		t.Errorf("prove total = %v, want ≥ 2ms", tot["prove"])
	}
}

// TestNilTrace pins the off path: every method on a nil trace/span is
// a safe no-op and — via the benchmark below — allocation-free.
func TestNilTrace(t *testing.T) {
	var tr *Trace
	sp := tr.Span("x")
	sp.End()
	if tr.Events() != nil || tr.Totals() != nil {
		t.Error("nil trace returned non-nil data")
	}
	if tr.NextLane() != 0 {
		t.Error("nil trace allocated a lane")
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Errorf("nil trace chrome dump = %q", b.String())
	}
}

func TestNilSpanAllocFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.SpanLane("prove/msm-a", 0)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-trace span cycle allocates %v times, want 0", allocs)
	}
}

// TestScopeNames pins the naming rule of a Scope — its own span is its
// label, a sub-scope appends, the root scope's label is empty — and that
// a trailing `...Scope` with nothing passed resolves to the zero Scope.
func TestScopeNames(t *testing.T) {
	tr := NewTrace()
	root := tr.Scope("")
	msm := root.Sub("msm/A")
	msm.Span().End()
	msm.Sub("/w0-3/c1").SpanLane(tr.NextLane()).End()
	if !msm.On() || msm.Trace() != tr || msm.Label() != "msm/A" {
		t.Errorf("scope = (%v, %p, %q), want on, the trace, msm/A", msm.On(), msm.Trace(), msm.Label())
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Name != "msm/A" || evs[1].Name != "msm/A/w0-3/c1" || evs[1].Lane == 0 {
		t.Errorf("events = %+v", evs)
	}
	// A scope carries its lane: Span opens on it and Sub inherits it.
	lane := tr.NextLane()
	quotient := root.OnLane(lane).Sub("quotient")
	quotient.Span().End()
	quotient.Sub("/ifft-A").Span().End()
	root.Sub("msm/B1").Span().End() // the scope OnLane was called on is unchanged
	evs = tr.Events()[2:]
	if len(evs) != 3 || evs[0].Lane != lane || evs[1].Name != "quotient/ifft-A" || evs[1].Lane != lane || evs[2].Lane != 0 {
		t.Errorf("lane events = %+v, want quotient and quotient/ifft-A on lane %d, msm/B1 on lane 0", evs, lane)
	}
	if sc := Opt(nil); sc.On() || sc.Sub("x").On() || sc.OnLane(3).On() || sc.Span() != nil {
		t.Error("an absent scope records")
	}
	if sc := Opt([]Scope{msm}); sc != msm {
		t.Error("Opt dropped the scope it was passed")
	}
}

// TestZeroScopeAllocFree is the off path of the prover stack's trailing
// `sc ...Scope` argument: a scope built on a nil trace, passed down,
// narrowed and opened as spans allocates nothing.
func TestZeroScopeAllocFree(t *testing.T) {
	var tr *Trace
	op := func(sc ...Scope) {
		s := Opt(sc)
		sp := s.Span()
		s.Sub("/len2").SpanLane(s.Trace().NextLane()).End()
		s.OnLane(s.Trace().NextLane()).Sub("quotient").Span().End()
		sp.End()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		op()
		op(tr.Scope("quotient/ifft-A"))
		op(tr.Scope("").Sub("msm/A"))
	})
	if allocs != 0 {
		t.Errorf("zero-scope calls allocate %v times, want 0", allocs)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTrace()
	s := tr.Span("solve")
	time.Sleep(time.Millisecond)
	s.End()
	lane := tr.NextLane()
	tr.SpanLane("msm/w0", lane).End()

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("chrome dump is not valid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("ph = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("ts missing or not a number: %v", ev["ts"])
		}
	}
	// Sorted by start: solve began first.
	if events[0]["name"] != "solve" {
		t.Errorf("first event = %v, want solve", events[0]["name"])
	}
	if events[1]["tid"].(float64) != float64(lane) {
		t.Errorf("lane event tid = %v, want %d", events[1]["tid"], lane)
	}
}

func TestContextPropagation(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Error("empty context yielded a trace")
	}
	if TraceFrom(nil) != nil { //nolint:staticcheck // nil ctx is the documented engine default
		t.Error("nil context yielded a trace")
	}
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("trace did not round-trip through context")
	}
}

// TestTraceConcurrent exercises the span recorder from many goroutines
// (the ProveMany shape); under -race it is the recorder's
// thread-safety proof.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	const workers, spans = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.NextLane()
			for i := 0; i < spans; i++ {
				tr.SpanLane("msm/window", lane).End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != workers*spans {
		t.Errorf("recorded %d events, want %d", got, workers*spans)
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if a == b {
		t.Errorf("consecutive IDs collided: %q", a)
	}
	if len(a) != 16 {
		t.Errorf("ID %q has length %d, want 16", a, len(a))
	}
}
