package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exposition format byte-for-byte: the
// CI smoke and any real Prometheus scraper parse this text, so format
// drift is a breaking change.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(`test_hits_total{tier="memory"}`, "Cache hits by tier.").Add(3)
	r.Counter(`test_hits_total{tier="disk"}`, "Cache hits by tier.").Inc()
	r.Gauge("test_depth", "Queue depth.").Set(2)
	r.GaugeFunc("test_fn", "Func gauge.", func() float64 { return 1.5 })
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(10)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 2
# HELP test_fn Func gauge.
# TYPE test_fn gauge
test_fn 1.5
# HELP test_hits_total Cache hits by tier.
# TYPE test_hits_total counter
test_hits_total{tier="memory"} 3
test_hits_total{tier="disk"} 1
# HELP test_seconds Latency.
# TYPE test_seconds histogram
test_seconds_bucket{le="0.1"} 1
test_seconds_bucket{le="1"} 3
test_seconds_bucket{le="+Inf"} 4
test_seconds_sum 11.05
test_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotent checks that re-registration returns the same
// metric — the property that lets independent subsystems share the
// default registry.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("idem_total", "h")
	c2 := r.Counter("idem_total", "h")
	if c1 != c2 {
		t.Error("counter re-registration returned a distinct metric")
	}
	c1.Add(2)
	if c2.Value() != 2 {
		t.Errorf("shared counter = %d, want 2", c2.Value())
	}
	h1 := r.Histogram("idem_seconds", "h", []float64{1, 2})
	h2 := r.Histogram("idem_seconds", "h", []float64{9, 10, 11})
	if h1 != h2 {
		t.Error("histogram re-registration returned a distinct metric")
	}
	if len(h2.Snapshot().Bounds) != 2 {
		t.Error("re-registration replaced the original bounds")
	}

	// GaugeFunc is the exception: the latest closure wins, so a
	// restarted subsystem doesn't leave a stale reader behind.
	r.GaugeFunc("idem_fn", "h", func() float64 { return 1 })
	r.GaugeFunc("idem_fn", "h", func() float64 { return 7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "idem_fn 7") {
		t.Errorf("gauge func not replaced:\n%s", b.String())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kind_total", "h")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("kind_total", "h")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hb_seconds", "h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 1e6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // ≤1: {0.5, 1}; ≤10: {1.5, 10}; ≤100: {99, 100}; +Inf: {1e6}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-1000212.0) > 1e-9 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

// TestRegistryConcurrent hammers registration, updates, and scrapes
// from many goroutines; run under -race in CI it is the registry's
// thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("conc_total", "h").Inc()
				r.Gauge("conc_depth", "h").Add(1)
				r.Histogram("conc_seconds", "h", []float64{0.1, 1, 10}).Observe(float64(i))
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("conc_seconds", "h", nil).Snapshot().Count; got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
}

// BenchmarkHistogramObserve guards the allocation-free claim for the
// hot-path observation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "h", TimeBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

// TestWritePrometheusAcrossRegistries: several registries render as one
// document — families sorted by name across all of them — which is how
// /metrics shows a server's series, its engine's and the process-wide
// ones together. One registry through the variadic forms is byte-for-byte
// what its own method writes.
func TestWritePrometheusAcrossRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("u_b_total", "B.").Add(2)
	a.Histogram("u_d_seconds", "D.", []float64{1}).Observe(0.5)
	b.Gauge("u_a_depth", "A.").Set(1)
	b.GaugeFunc("u_c_fn", "C.", func() float64 { return 3 })

	var got strings.Builder
	if err := WritePrometheus(&got, a, b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP u_a_depth A.
# TYPE u_a_depth gauge
u_a_depth 1
# HELP u_b_total B.
# TYPE u_b_total counter
u_b_total 2
# HELP u_c_fn C.
# TYPE u_c_fn gauge
u_c_fn 3
# HELP u_d_seconds D.
# TYPE u_d_seconds histogram
u_d_seconds_bucket{le="1"} 1
u_d_seconds_bucket{le="+Inf"} 1
u_d_seconds_sum 0.5
u_d_seconds_count 1
`
	if got.String() != want {
		t.Errorf("union mismatch:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}

	rec := httptest.NewRecorder()
	Handler(b, a).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.String() != want {
		t.Errorf("Handler(b, a) differs from WritePrometheus(a, b):\n%s", rec.Body.String())
	}

	var single, method strings.Builder
	if err := WritePrometheus(&single, a); err != nil {
		t.Fatal(err)
	}
	if err := a.WritePrometheus(&method); err != nil {
		t.Fatal(err)
	}
	if single.String() != method.String() || single.Len() == 0 {
		t.Errorf("one registry renders differently through the two forms:\n%s---\n%s", single.String(), method.String())
	}
}

// TestGaugeMaxConcurrent: Max is a high-water mark under concurrent
// writers (the verify pool's largest-batch gauge); under -race it is the
// method's thread-safety proof.
func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Max(float64((i*7 + w) % 1000))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 999 {
		t.Errorf("max = %v, want 999", got)
	}
	g.Max(5)
	if got := g.Value(); got != 999 {
		t.Errorf("Max(5) lowered the gauge to %v", got)
	}
}
