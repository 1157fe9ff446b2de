package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"
)

// config is one invocation: a workload, a seed, how long to measure,
// and whether this is the untraced (end-to-end) or traced (per-layer)
// pass.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	procs    int
	tmpDir   string
	traceDir string
}

func (c *config) shape() shape {
	if c.smoke {
		return smokeShape
	}
	return benchShape
}

// setUps is how many times the set-up runs, each followed by its share
// of the timed phase. The traced pass does not report set-up time and
// sets up once.
func (c *config) setUps() int {
	if c.trace || c.smoke {
		return 1
	}
	return 3
}

// sample is one timed op.
type sample struct {
	class   int
	latency time.Duration // the timed call(s) into the program
	check   time.Duration // verifying the op's output
	traced  bool
}

// phase collects the timed phase of a run. Clients append concurrently.
type phase struct {
	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	okOps     int // timed ops whose output was right (gates excluded)
	wall      time.Duration
	wireBytes int64
	// sliceRates is the throughput (right ops / wall) of each timed
	// slice merged into this phase.
	sliceRates []float64
}

func (p *phase) add(s sample, wire int64, failure error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples = append(p.samples, s)
	p.wireBytes += wire
	p.attempted++
	if failure != nil {
		p.failLocked(failure)
	} else {
		p.okOps++
	}
}

// gate counts one end-of-run check (a tamper probe, a counter
// assertion) as an attempted op that failed when err is non-nil.
func (p *phase) gate(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failLocked(err)
	}
}

func (p *phase) failLocked(err error) {
	p.failed++
	if p.failed <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
	}
}

// loopCtl bounds a timed phase: by wall time in a benchmark run, by op
// count in a smoke run. In the traced pass ops alternate untraced and
// traced, so one run yields both medians and their difference is the
// tracing overhead.
type loopCtl struct {
	deadline time.Time
	minOps   int
	maxOps   int
	rec      *recorder
}

func (c loopCtl) more(i int) bool {
	if c.maxOps > 0 {
		return i < c.maxOps
	}
	return i < c.minOps || time.Now().Before(c.deadline)
}

func (c loopCtl) recorderFor(i int) *recorder {
	if i%2 == 1 {
		return c.rec
	}
	return nil
}

// counters are the program's own counts at the end of a run, read from
// Engine.Stats() or /v1/stats. Workloads without a service leave the
// service half zero.
type counters struct {
	engSetups, engMemHits, engDiskHits        uint64
	engProves, engStreamProves, engSpillProve uint64
	spillBytes                                int64
	svcVerifyRequests, svcBatchCalls          uint64
	svcBatchedRequests, svcFallbacks          uint64
}

// workload is one of the four benchmark workloads. A run calls setUp,
// run, finish, tearDown in that order, up to three times over.
type workload interface {
	// setUp generates the inputs from the seed and brings the program to
	// the state the first timed op needs: compile, trusted setup or
	// registrations, warm-ups.
	setUp() error
	// run executes timed ops until ctl says stop.
	run(ctl loopCtl, ph *phase)
	// finish runs the end-of-run correctness gates and returns the
	// program's counters.
	finish(ph *phase) counters
	tearDown()
}

var workloadNames = []string{"prove-mem", "prove-ooc", "register-cold", "verify-serve"}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "prove-mem":
		return &proveWorkload{cfg: cfg}, nil
	case "prove-ooc":
		return &proveWorkload{cfg: cfg, outOfCore: true}, nil
	case "register-cold":
		return &registerWorkload{cfg: cfg}, nil
	case "verify-serve":
		return &verifyWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// merge folds one timed slice into the run's totals.
func (p *phase) merge(s *phase) {
	p.samples = append(p.samples, s.samples...)
	p.attempted += s.attempted
	p.failed += s.failed
	p.okOps += s.okOps
	p.wall += s.wall
	p.wireBytes += s.wireBytes
	p.sliceRates = append(p.sliceRates, float64(s.okOps)/s.wall.Seconds())
}

// runOnce executes one (workload, seed, trace) run and returns its
// result plus the human-readable extras printed beside it.
//
// The untraced pass sets up three times and times a third of --seconds
// after each set-up, on that set-up's engine or service: setup_s is a
// median of three, and the timed ops are spread over a longer stretch
// of wall time than one contiguous phase would cover, so one episode of
// interference from the machine's neighbours cannot cover them all.
func runOnce(cfg *config) (*result, []string, error) {
	runtime.GOMAXPROCS(cfg.procs)
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	var rec *recorder
	ctl := loopCtl{minOps: 2}
	if cfg.trace {
		// The traced pass spends half its time on the workload and the
		// rest on the layer probes.
		rec = &recorder{}
		ctl.rec = rec
		ctl.minOps = 4
	}
	if cfg.smoke {
		ctl.maxOps = 2
	}
	slice := cfg.seconds / float64(cfg.setUps())
	if cfg.trace {
		slice /= 2
	}

	total := &phase{}
	var setupS []float64
	var cnt counters
	var setupPeakMB, peakMB float64
	for i := 0; i < cfg.setUps(); i++ {
		t0 := time.Now()
		err := w.setUp()
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			w.tearDown()
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupPeakMB = float64(procStatusKB("VmHWM")) * 1024 / 1e6

		debug.FreeOSMemory()
		ph := &phase{}
		rss := startRSSSampler()
		start := time.Now()
		ctl.deadline = start.Add(time.Duration(slice * float64(time.Second)))
		w.run(ctl, ph)
		ph.wall = time.Since(start)
		peakMB = max(peakMB, rss.stopMB())
		cnt = w.finish(ph)
		w.tearDown()
		total.merge(ph)
	}

	res := &result{Metrics: map[string]metric{}}
	var extras []string
	if cfg.trace {
		if extras, err = layerMetrics(cfg, res, total, cnt, rec, setupPeakMB, peakMB); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
		if err := rec.writeChrome(path); err != nil {
			return nil, nil, fmt.Errorf("write trace: %w", err)
		}
		extras = append(extras, "chrome trace: "+path)
	} else {
		extras = endToEndMetrics(res, total, setupS, peakMB)
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = res.Failed == 0
	return res, extras, nil
}

// endToEndMetrics fills the untraced pass's metrics: what a user of the
// system sees. Every workload reports every one of them.
//
// The two timings are best cases, not medians: latency at the fast
// decile of all timed ops, throughput as the best of the three timed
// slices. On a shared machine interference only ever adds time, in
// episodes longer than an op, so a run's median moves with the
// neighbours while its best case stays with the program (README,
// "Noise"). The report prints the median and tail beside them.
func endToEndMetrics(res *result, ph *phase, setupS []float64, peakMB float64) []string {
	lat := latenciesMS(ph.samples, func(sample) bool { return true })
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.Metrics["op_ms_p10"] = metric{percentile(lat, 10), "ms"}
	res.Metrics["ops_per_s"] = metric{slices.Max(ph.sliceRates), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{peakMB, "MB"}
	res.Metrics["wire_kb_per_op"] = metric{float64(ph.wireBytes) / 1e3 / float64(max(len(ph.samples), 1)), "kB"}

	pct, tail := tailPercentile(lat)
	extras := []string{
		fmt.Sprintf("op latency: p10 %.3f ms, p50 %.3f ms, p%d %.3f ms over %d timed ops in %.2f s", percentile(lat, 10), median(lat), pct, tail, len(lat), ph.wall.Seconds()),
		fmt.Sprintf("throughput per slice: %.3f ops/s; over the run %.4f (%d right of %d)", ph.sliceRates, float64(ph.okOps)/ph.wall.Seconds(), ph.okOps, len(ph.samples)),
		fmt.Sprintf("set-ups: %.3f s", setupS),
	}
	return append(extras, classLines(ph.samples)...)
}

// classLines reports each request class on its own line when a workload
// mixes several (verify-serve).
func classLines(samples []sample) []string {
	var out []string
	for c := 0; c < numClasses; c++ {
		lat := latenciesMS(samples, func(s sample) bool { return s.class == c })
		if len(lat) == 0 || len(lat) == len(samples) {
			continue
		}
		pct, tail := tailPercentile(lat)
		out = append(out, fmt.Sprintf("  class %-9s p10 %.3f ms, p50 %.3f ms, p%d %.3f ms over %d", className[c], percentile(lat, 10), median(lat), pct, tail, len(lat)))
	}
	return out
}

func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// printReport writes every metric by name with its unit, sorted, plus
// the extras, to stderr; stdout carries only the result line.
func printReport(cfg *config, res *result, extras []string) {
	fmt.Fprintf(os.Stderr, "== %s seed=%d trace=%v: attempted %d, failed %d (failed_share %.4f)\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, e := range extras {
		fmt.Fprintln(os.Stderr, "  "+e)
	}
}
