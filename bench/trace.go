package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the program. Spans of one op share its id; parent is the index
// of the enclosing span in the recorder (-1 for a root); lane is the
// closed-loop client that issued it.
type span struct {
	Name   string
	Op     int
	Lane   int
	Parent int
	Start  time.Time
	End    time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced path: begin/end on it cost one
// nil check, so untraced and traced ops run the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span on lane 0 and returns its index (-1 on a nil
// recorder).
func (r *recorder) begin(name string, op, parent int) int {
	return r.beginLane(name, op, parent, 0)
}

func (r *recorder) beginLane(name string, op, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known — how the child
// spans synthesised from the durations a ProveResult reports get in.
func (r *recorder) add(name string, op, parent int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: start.Add(d)})
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End.Sub(s.Start) - coveredBy(s, spans, children[i])
	}
	return out
}

func coveredBy(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curEnd time.Time
	for _, v := range ivs {
		if v.a.After(curEnd) {
			covered += v.b.Sub(v.a)
			curEnd = v.b
		} else if v.b.After(curEnd) {
			covered += v.b.Sub(curEnd)
			curEnd = v.b
		}
	}
	return covered
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps relative to the first span), one
// thread lane per client so concurrent requests do not overlap.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	events := make([]event, 0, len(spans))
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	for i, s := range spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: map[string]any{"op": s.Op, "self_us": float64(self[i]) / float64(time.Microsecond), "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
