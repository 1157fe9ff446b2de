package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records a tree of timed spans for one job. The zero point is
// the trace's creation; span offsets are monotonic-clock durations
// from it, so the exported timeline is immune to wall-clock steps.
//
// The off path is the whole design: a nil *Trace is valid everywhere —
// Span on a nil trace returns a nil *Span, and every Span method is a
// nil-receiver no-op — so instrumented code carries no branches beyond
// the nil checks the method calls themselves perform, and zero
// allocations when tracing is disabled.
type Trace struct {
	start time.Time
	lanes atomic.Int64

	mu     sync.Mutex
	events []Event
}

// Event is one completed span.
type Event struct {
	Name  string
	Lane  int // Chrome trace tid: spans on one lane render as a stack
	Start time.Duration
	Dur   time.Duration
}

// NewTrace starts an empty trace anchored at the current time.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Span is one open interval on a trace. End records it; a Span must
// not be ended twice.
type Span struct {
	tr    *Trace
	name  string
	lane  int
	start time.Duration
	pool  *Lanes // when set, End returns the lane to the pool
}

// Span opens a span named name on lane 0 — the main prover timeline.
// Safe on a nil Trace (returns nil).
func (t *Trace) Span(name string) *Span { return t.SpanLane(name, 0) }

// SpanLane opens a span on an explicit lane. Concurrent spans (MSM
// windows, stream prefetch) take distinct lanes so trace viewers
// render them as parallel rows instead of a corrupt stack. Safe on a
// nil Trace.
func (t *Trace) SpanLane(name string, lane int) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, lane: lane, start: time.Since(t.start)}
}

// NextLane reserves a fresh lane id ≥ 1 for a concurrent span group.
// Safe on a nil Trace (returns 0).
func (t *Trace) NextLane() int {
	if t == nil {
		return 0
	}
	return int(t.lanes.Add(1))
}

// Scope is a trace together with the name an operation records its
// spans under: the operation's own span is named Label, and everything
// it nests is named Label plus a suffix (Sub). It is how a trace is
// handed to the prover stack — every MSM, FFT, Prove and Verify takes a
// trailing optional Scope, so the traced and the untraced call are the
// same function. The zero Scope records nothing and allocates nothing.
//
// A scope also carries the lane its spans open on: lane 0 unless the
// caller moved it with OnLane, which is what a task running beside the
// main timeline (the prover's quotient lane) does so the two render as
// two clean rows.
type Scope struct {
	tr    *Trace
	label string
	lane  int
}

// Scope returns the scope recording under label on t; the empty label
// is the root scope, whose sub-scopes carry their suffix as the whole
// name. Safe on a nil Trace (returns the zero Scope).
func (t *Trace) Scope(label string) Scope {
	if t == nil {
		return Scope{}
	}
	return Scope{tr: t, label: label}
}

// Opt resolves a trailing `sc ...Scope` parameter: the scope passed, or
// the zero Scope when the caller passed none.
func Opt(sc []Scope) Scope {
	if len(sc) == 0 {
		return Scope{}
	}
	return sc[0]
}

// On reports whether the scope records. Callers test it before building
// a span name that costs a concatenation or a conversion.
func (s Scope) On() bool { return s.tr != nil }

// Trace returns the underlying trace (nil for the zero Scope).
func (s Scope) Trace() *Trace { return s.tr }

// Label returns the name the scope records under.
func (s Scope) Label() string { return s.label }

// Sub returns the scope named Label+suffix on the same lane. On the zero
// Scope it returns the zero Scope without concatenating.
func (s Scope) Sub(suffix string) Scope {
	if s.tr == nil {
		return Scope{}
	}
	s.label += suffix
	return s
}

// OnLane returns the scope recording on lane (normally a fresh
// tr.NextLane()) instead of the lane it was on; every Sub of it
// inherits the lane. The zero Scope stays the zero Scope.
func (s Scope) OnLane(lane int) Scope {
	if s.tr == nil {
		return Scope{}
	}
	s.lane = lane
	return s
}

// Span opens the scope's own span on the scope's lane (nil for the zero
// Scope).
func (s Scope) Span() *Span { return s.tr.SpanLane(s.label, s.lane) }

// SpanLane opens the scope's own span on an explicit lane.
func (s Scope) SpanLane(lane int) *Span { return s.tr.SpanLane(s.label, lane) }

// End closes the span and appends it to its trace. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := Event{Name: s.name, Lane: s.lane, Start: s.start, Dur: time.Since(s.tr.start) - s.start}
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, ev)
	s.tr.mu.Unlock()
	if s.pool != nil {
		s.pool.ch <- s.lane
	}
}

// Lanes hands out lanes to a group of concurrent spans (parallel MSM
// window tasks) such that spans sharing a lane never overlap in time —
// the invariant trace viewers need to render each lane as a clean row.
// A span acquired from the pool returns its lane on End.
type Lanes struct {
	tr *Trace
	ch chan int
}

// Lanes reserves width fresh lanes for a concurrent span group. Safe
// on a nil Trace (returns nil).
func (t *Trace) Lanes(width int) *Lanes {
	if t == nil {
		return nil
	}
	if width < 1 {
		width = 1
	}
	l := &Lanes{tr: t, ch: make(chan int, width)}
	for i := 0; i < width; i++ {
		l.ch <- t.NextLane()
	}
	return l
}

// Span opens a span on a free lane, blocking while all lanes are busy
// (callers size the pool to their worker count, so this never blocks
// in practice). Safe on a nil pool (returns nil).
func (l *Lanes) Span(name string) *Span {
	if l == nil {
		return nil
	}
	s := l.tr.SpanLane(name, <-l.ch)
	s.pool = l
	return s
}

// Events returns a copy of the recorded spans (completion order). Safe
// on a nil Trace (returns nil).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Totals sums recorded span durations by name — the aggregation behind
// the bench per-phase breakdown. Safe on a nil Trace (returns nil).
func (t *Trace) Totals() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.events))
	for _, ev := range t.events {
		out[ev.Name] += ev.Dur
	}
	return out
}

// WriteChrome writes the trace in the Chrome trace-event JSON array
// format ("X" complete events, microsecond units) — loadable directly
// in chrome://tracing or https://ui.perfetto.dev.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	events := t.Events()
	// Stable order for goldens and diffing: by start, then lane.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Lane < events[j].Lane
	})
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		// Microseconds with nanosecond precision; Chrome accepts floats.
		if _, err := fmt.Fprintf(w, "  {\"name\":%q,\"cat\":\"zkrownn\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}%s\n",
			ev.Name, float64(ev.Start)/1e3, float64(ev.Dur)/1e3, ev.Lane, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace to a context for propagation
// across API boundaries (service → queue → engine).
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the trace from a context, nil when absent (or
// when ctx itself is nil) — feeding directly into the nil-trace fast
// path.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
