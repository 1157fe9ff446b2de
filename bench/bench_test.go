package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median = %v, want 0", got)
	}
}

// TestTailPercentile pins the "highest percentile with at least ten
// samples beyond it" rule.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{8, 100, 8},      // too few for any tail percentile: the maximum
		{20, 100, 20},    // only the median itself has ten beyond
		{21, 52, 11},     // ceil(.52·21) = 11, ten beyond
		{100, 90, 90},    // exactly ten beyond p90
		{110, 90, 99},    // p91 → rank 101 leaves nine beyond
		{199, 94, 188},   // p95 → rank 190 leaves nine beyond
		{200, 95, 190},   // ten beyond p95
		{267, 96, 257},   // ceil(.96·267) = 257
		{1000, 99, 990},  // p99 qualifies
		{5000, 99, 4950}, // and is the cap
	} {
		pct, v := tailPercentile(seq(tc.n))
		if pct != tc.pct || v != tc.value {
			t.Errorf("n=%d: got p%d = %v, want p%d = %v", tc.n, pct, v, tc.pct, tc.value)
		}
		if tc.pct < 100 {
			if beyond := tc.n - int(v); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, pct)
			}
		}
	}
}

// TestQuartileSpread checks the spread against values computed with
// Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; !near(got, want) {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4, 8], n=4) = [1.25, 3.0, 7.0]; median 3.
	if got, want := quartileSpread([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; !near(got, want) {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// quantiles([3, 5], n=4) = [2.5, 4.0, 5.5]: the exclusive method extrapolates.
	if got, want := quartileSpread([]float64{3, 5}), (5.5-2.5)/4.0; !near(got, want) {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Fatalf("single value spread = %v, want 0", got)
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

// TestSeededInputsDeterministic: the same seed gives the same model,
// key, suspects and request schedule; another seed gives others.
func TestSeededInputsDeterministic(t *testing.T) {
	draw := func(seed int64) (any, any, any, []request) {
		in := newInputs(seed, smokeShape)
		s, err := in.suspect()
		if err != nil {
			t.Fatal(err)
		}
		return in.model.SnapshotParams(), in.key, s.Layers[0].W, newSchedule(in.rng, 480, 4)
	}
	m1, k1, s1, sched1 := draw(7)
	m2, k2, s2, sched2 := draw(7)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(sched1, sched2) {
		t.Fatal("same seed produced different inputs")
	}
	m3, _, _, sched3 := draw(8)
	if reflect.DeepEqual(m1, m3) || reflect.DeepEqual(sched1, sched3) {
		t.Fatal("different seeds produced the same inputs")
	}

	// Every block of the schedule holds the exact 20 / 75 / 5 mix, each
	// class on its own registration, and over two blocks the tampered
	// requests cover both registrations with both variants.
	sched := newSchedule(rand.New(rand.NewSource(1)), 10*scheduleBlock-3, 2)
	if len(sched) != 10*scheduleBlock {
		t.Fatalf("schedule has %d requests, want whole blocks (%d)", len(sched), 10*scheduleBlock)
	}
	variants := map[[2]bool]int{}
	for b := 0; b < len(sched); b += scheduleBlock {
		var count [numClasses]int
		for _, r := range sched[b : b+scheduleBlock] {
			count[r.class]++
			if r.class != classTampered && r.committedModel != (r.class == classCommitted) {
				t.Fatalf("class %s targets the wrong registration", className[r.class])
			}
			if r.class == classTampered {
				variants[[2]bool{r.committedModel, r.forgeProof}]++
			}
		}
		if count != [numClasses]int{classCommitted: 30, classPublic: 8, classTampered: 2} {
			t.Fatalf("block at %d has mix %v", b, count)
		}
	}
	if len(variants) != 4 {
		t.Errorf("tampered requests cover %d of the 4 registration × variant pairs", len(variants))
	}
}

// TestSpanSelfTime: self time is the span minus what its direct
// children cover, with overlapping children counted once and children
// clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(40)},
		{Name: "b", Parent: 0, Start: at(30), End: at(60)},   // overlaps a by 10
		{Name: "c", Parent: 0, Start: at(90), End: at(120)},  // clipped to 10
		{Name: "a1", Parent: 1, Start: at(10), End: at(25)},  // grandchild: not root's
		{Name: "lone", Parent: -1, Start: at(0), End: at(5)}, // no children
	}
	self := selfTimes(spans)
	want := []time.Duration{40, 15, 30, 30, 15, 5}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("%s: self %v, want %v", spans[i].Name, self[i], w*time.Millisecond)
		}
	}

	// A nil recorder is the untraced path.
	var rec *recorder
	id := rec.begin("x", 0, -1)
	rec.end(id)
	rec.add("y", 0, id, t0, time.Second)

	// The Chrome export is valid JSON with one complete event per span.
	r := &recorder{spans: spans}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := r.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans) || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 100000 {
		t.Fatalf("unexpected trace events: %+v", doc.TraceEvents)
	}
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkAgainstSpec requires a result to carry exactly the spec's
// metrics, with the spec's units.
func checkAgainstSpec(t *testing.T, what string, res *result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, s.Name)
		case m.Unit != s.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, s.Name, m.Unit, s.Unit)
		}
	}
}

// TestSmokeWorkloads runs all four workloads untraced on the tiny shape
// (two ops each): every output is checked, every end-to-end metric of
// BENCHMARK.json is reported and non-zero.
func TestSmokeWorkloads(t *testing.T) {
	spec := loadRepoSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := &config{workload: w, seed: 5, seconds: 1, smoke: true, procs: pinnedProcs(), tmpDir: t.TempDir(), traceDir: t.TempDir()}
			res, _, err := runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkAgainstSpec(t, w, res, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
				}
			}
			if left, _ := os.ReadDir(cfg.tmpDir); len(left) != 0 {
				t.Errorf("run left %d entries in its temp dir", len(left))
			}
		})
	}
}

// TestSmokeTraced runs one workload's traced pass: every per-layer
// metric of BENCHMARK.json is reported, the probes' outputs check out,
// and a Chrome trace is written.
func TestSmokeTraced(t *testing.T) {
	spec := loadRepoSpec(t)
	cfg := &config{workload: "prove-ooc", seed: 6, seconds: 1, trace: true, smoke: true, procs: pinnedProcs(), tmpDir: t.TempDir(), traceDir: t.TempDir()}
	res, _, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("attempted=%d failed=%d", res.Attempted, res.Failed)
	}
	checkAgainstSpec(t, "prove-ooc traced", res, spec.PerLayer)
	if got := res.Metrics["engine.spill_proves"].Value; got != res.Metrics["engine.proves"].Value || got == 0 {
		t.Errorf("engine.spill_proves = %v of %v proves on prove-ooc", got, res.Metrics["engine.proves"].Value)
	}
	traces, _ := filepath.Glob(filepath.Join(cfg.traceDir, "*.trace.json"))
	if len(traces) != 1 {
		t.Fatalf("want one trace file, found %v", traces)
	}
}

// TestCheckVerdicts drives -check's three verdicts.
func TestCheckVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p10", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 106}, verdictAgree},
		{lower, steady, []float64{115, 116, 114, 115, 117}, verdictRegressed},
		{lower, steady, []float64{80, 81, 79, 80, 82}, verdictAgree}, // better is not a regression
		{higher, steady, []float64{85, 86, 84, 85, 87}, verdictRegressed},
		{higher, steady, []float64{120, 121, 119, 120, 122}, verdictAgree},
		{lower, steady, []float64{100, 140, 70, 100, 160}, verdictUnresolved},
		{lower, steady, nil, verdictMissing},
	} {
		if got, _, _, _ := compareMetric(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s a=%v b=%v: verdict %s, want %s", tc.spec.Name, tc.a, tc.b, got, tc.want)
		}
	}

	// End to end through files: b regresses one metric on one workload.
	spec := loadRepoSpec(t)
	mk := func(scale float64) *resultSet {
		set := &resultSet{}
		for _, w := range spec.Workloads {
			for seed := int64(0); seed < 3; seed++ {
				res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
				for _, m := range spec.EndToEnd {
					v := 100 + float64(seed)
					if w.Name == "prove-ooc" && m.Name == "op_ms_p10" {
						v *= scale
					}
					res.Metrics[m.Name] = metric{v, m.Unit}
				}
				set.Runs = append(set.Runs, runRecord{Workload: w.Name, Seed: seed, Result: res})
			}
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", mk(1)), write("b.json", mk(1.5))
	var out bytes.Buffer
	bad, err := checkFiles(spec, a, a, &out)
	if err != nil || bad {
		t.Fatalf("a set against itself: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	bad, err = checkFiles(spec, a, b, &out)
	if err != nil || !bad {
		t.Fatalf("regressed set passed: bad=%v err=%v", bad, err)
	}
	rows := strings.Count(out.String(), "\n") - 1
	if want := len(spec.Workloads) * len(spec.EndToEnd); rows != want {
		t.Errorf("%d rows, want one per (workload, metric) = %d", rows, want)
	}
	if strings.Count(out.String(), verdictRegressed) != 1 {
		t.Errorf("want exactly one regressed row:\n%s", out.String())
	}
}
