// Package obs is ZKROWNN's zero-dependency telemetry subsystem: a
// concurrent metrics registry with Prometheus text exposition, a
// lightweight span tracer with Chrome trace-event export, and small
// structured-logging helpers. Everything is stdlib-only.
//
// The design target is "free when off, cheap when on": counters and
// histogram observations are single atomic operations with no
// allocation, and the tracer's entire off path is a nil-receiver check
// (a nil *Trace produces nil *Span whose End is a no-op), so
// instrumentation can live permanently on prover hot paths — FFT
// levels, MSM windows, stream-chunk waits — without moving the
// benchmarks it exists to explain.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are
// allocation-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. Stored as float64 bits so
// Set/Add are lock-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta (CAS loop, allocation-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max raises the gauge to v when v is larger (CAS loop,
// allocation-free): a high-water mark.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are preallocated at
// registration; Observe is one binary search plus two atomic updates
// and never allocates, so it is safe on prover hot paths.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implied after the last
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	total   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) → +Inf
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state,
// with non-cumulative per-bucket counts (Counts[i] observations were ≤
// Bounds[i]; the final entry is the +Inf bucket).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state. Per-bucket reads are atomic but
// the cut is not globally consistent, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor — the standard latency-histogram
// shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// TimeBuckets is the default prover-latency bucket layout: 1 ms to
// ~2 min, doubling. Setup on paper-scale circuits sits near the top,
// sub-millisecond verifies in the first bucket.
func TimeBuckets() []float64 { return ExpBuckets(0.001, 2, 18) }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case histogramKind:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance within a metric family.
type series struct {
	labels string // `tier="memory"` — canonical text between the braces, may be empty
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name (and therefore one
// HELP/TYPE pair in the exposition).
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label strings in registration order
	series map[string]*series
}

// Registry is a concurrent metrics registry. Registration is
// idempotent: asking for an existing name+labels returns the existing
// metric. Metric operations after registration touch only atomics.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: the home of series no
// engine or server owns (the r1cs disk I/O counters). An engine's and a
// server's own series live on registries they create.
func Default() *Registry { return defaultRegistry }

// splitName separates `fam{label="x"}` into family and label text.
func splitName(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// lookup returns (creating if needed) the series for name, checking
// kind consistency. help is kept from the first registration.
func (r *Registry) lookup(name, help string, kind metricKind) *series {
	fam, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[fam]
	if f == nil {
		f = &family{name: fam, help: help, kind: kind, series: make(map[string]*series)}
		r.families[fam] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", fam, f.kind, kind))
	}
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// Counter returns the counter registered under name, creating it on
// first use. name may carry labels: `zkrownn_keycache_hits_total{tier="memory"}`.
func (r *Registry) Counter(name, help string) *Counter {
	s := r.lookup(name, help, counterKind)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	s := r.lookup(name, help, gaugeKind)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers (or replaces) a gauge whose value is read from
// fn at scrape time — the shape for values owned elsewhere, like queue
// depth. Re-registration replaces the function so a restarted
// subsystem's closure wins over a stale one.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	s := r.lookup(name, help, gaugeFuncKind)
	s.fn = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (bounds are ignored
// on later lookups; a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	s := r.lookup(name, help, histogramKind)
	if s.h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		s.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return s.h
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges a series' labels with one extra pair (used for the
// le label on histogram buckets).
func joinLabels(labels, extra string) string {
	switch {
	case labels == "":
		return extra
	case extra == "":
		return labels
	default:
		return labels + "," + extra
	}
}

func writeSeries(w io.Writer, fam, labels, value string) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", fam, value)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", fam, labels, value)
	}
	return err
}

// WritePrometheus writes every metric registered on r; see the
// package-level WritePrometheus.
func (r *Registry) WritePrometheus(w io.Writer) error { return WritePrometheus(w, r) }

// WritePrometheus writes every metric of the given registries as one
// document in the Prometheus text exposition format (version 0.0.4):
// families sorted by name across registries, series in registration
// order, histograms with cumulative buckets, +Inf, _sum and _count. The
// registries are expected to hold disjoint families.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var fams []*family
	for _, r := range regs {
		r.mu.RLock()
		for _, f := range r.families {
			fams = append(fams, f)
		}
		r.mu.RUnlock()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, labels := range f.order {
			s := f.series[labels]
			switch f.kind {
			case counterKind:
				if err := writeSeries(w, f.name, labels, strconv.FormatUint(s.c.Value(), 10)); err != nil {
					return err
				}
			case gaugeKind:
				if err := writeSeries(w, f.name, labels, formatFloat(s.g.Value())); err != nil {
					return err
				}
			case gaugeFuncKind:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				}
				if err := writeSeries(w, f.name, labels, formatFloat(v)); err != nil {
					return err
				}
			case histogramKind:
				snap := s.h.Snapshot()
				cum := uint64(0)
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatFloat(snap.Bounds[i])
					}
					bl := joinLabels(labels, `le="`+le+`"`)
					if err := writeSeries(w, f.name+"_bucket", bl, strconv.FormatUint(cum, 10)); err != nil {
						return err
					}
				}
				if err := writeSeries(w, f.name+"_sum", labels, formatFloat(snap.Sum)); err != nil {
					return err
				}
				if err := writeSeries(w, f.name+"_count", labels, strconv.FormatUint(snap.Count, 10)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registries as one
// document in Prometheus text format — mount it at GET /metrics.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, regs...)
	})
}
