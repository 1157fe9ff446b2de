// Command bench is the repository's regression benchmark: four
// closed-loop workloads over one extraction circuit — in-memory proving,
// out-of-core proving, cold registration through the proof service, and
// served verification — each reporting the same end-to-end metrics
// untraced and, in a separate traced pass, per-layer metrics from its
// own spans and a suite of layer probes. BENCHMARK.json at the
// repository root is its contract; README.md beside this file explains
// the workloads, the metrics and what each layer metric should move.
//
//	go run ./bench -workload prove-mem -seed 1 -seconds 15 -trace 0
//	go run ./bench                       # every workload, both passes
//	go run ./bench -check a.json b.json  # compare two result sets
//
// cmd/zkrownn-bench remains the paper's Table I reproduction; claims
// about performance regressions or gains are made against this one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"zkrownn/internal/bn254/fr"
)

func main() {
	var (
		workloadF = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: every workload, untraced then traced, one child process each)")
		seed      = flag.Int64("seed", 1, "seed all inputs are generated from")
		seconds   = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds in BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny circuit, two ops per workload: checks the benchmark, measures nothing")
		check     = flag.Bool("check", false, "compare two result files written by -out: bench -check a.json b.json")
		out       = flag.String("out", "", "all-workloads mode: write the result set to this file")
		runs      = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, on consecutive seeds")
		specPath  = flag.String("spec", "BENCHMARK.json", "the benchmark contract (bounds, metric lists, default run length)")
		traceDir  = flag.String("tracedir", ".bench_build/traces", "where the traced pass writes its Chrome trace files")
	)
	flag.Parse()

	spec, specErr := loadSpec(*specPath)
	if *check {
		if specErr != nil {
			fatal(specErr)
		}
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -check a.json b.json"))
		}
		regressed, err := checkFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = 15
		if specErr == nil && spec.RunSeconds > 0 {
			*seconds = float64(spec.RunSeconds)
		}
	}

	if *workloadF == "" {
		if err := runAll(*seed, *seconds, *runs, *smoke, *out, *traceDir); err != nil {
			fatal(err)
		}
		return
	}

	cfg := &config{
		workload: *workloadF, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		procs: pinnedProcs(), tmpDir: os.TempDir(), traceDir: *traceDir,
	}
	printEnv(cfg)
	res, extras, err := runOnce(cfg)
	if err != nil {
		fatal(err)
	}
	printReport(cfg, res, extras)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// pinnedProcs is the GOMAXPROCS every run pins: min(CPUs, 4), where
// CPUs also honours a cgroup CPU quota (Go 1.24 does not).
func pinnedProcs() int {
	n := runtime.NumCPU()
	if data, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(data))
		if len(f) == 2 && f[0] != "max" {
			quota, qerr := strconv.ParseFloat(f[0], 64)
			period, perr := strconv.ParseFloat(f[1], 64)
			if qerr == nil && perr == nil && period > 0 {
				if q := int(quota/period + 0.999); q >= 1 && q < n {
					n = q
				}
			}
		}
	}
	return min(n, 4)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// environment is the block printed before every run and stored with
// every result set.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	MulBackend string `json:"fr_mul_backend"`
	Shape      string `json:"shape"`
	Generator  string `json:"generator"`
}

func newEnvironment(procs int, sh shape) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), CPU: cpuModel(),
		MulBackend: fr.MulBackend(),
		Shape:      fmt.Sprintf("%dx%d dense+ReLU, %d-bit signature, %d triggers, maxErrors %d", sh.in, sh.hidden, sh.bits, sh.triggers, sh.bits),
		Generator:  fmt.Sprintf("closed loop, one process; 1 caller (prove-*, register-cold), %d clients with one keep-alive connection each (verify-serve)", procs),
	}
}

func printEnv(cfg *config) {
	e := newEnvironment(cfg.procs, cfg.shape())
	fmt.Fprintf(os.Stderr, "env: nproc=%d GOMAXPROCS=%d %s cpu=%q fr.mul=%s\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPU, e.MulBackend)
	fmt.Fprintf(os.Stderr, "env: circuit %s\n", e.Shape)
	fmt.Fprintf(os.Stderr, "env: generator %s\n", e.Generator)
	fmt.Fprintf(os.Stderr, "env: workload=%s seed=%d seconds=%g trace=%v set-ups=%d smoke=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.setUps(), cfg.smoke)
}

// runRecord is one run in a result set.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// resultSet is what -out writes and -check reads.
type resultSet struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

// runAll re-executes this binary once per run, so GC state and the RSS
// high-water mark are per run: every workload untraced on `runs`
// consecutive seeds, then every workload traced on the first seed.
func runAll(seed int64, seconds float64, runs int, smoke bool, out, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: newEnvironment(pinnedProcs(), (&config{smoke: smoke}).shape())}
	failed := false
	for _, trace := range []int{0, 1} {
		for _, w := range workloadNames {
			n := runs
			if trace == 1 {
				n = 1
			}
			for r := 0; r < n; r++ {
				args := []string{
					"-workload", w, "-seed", strconv.FormatInt(seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-tracedir", traceDir, "-smoke=" + strconv.FormatBool(smoke),
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				var exitErr *exec.ExitError
				if err != nil && !(errors.As(err, &exitErr) && exitErr.ExitCode() == 1) {
					return fmt.Errorf("%s (trace %d): %w", w, trace, err)
				}
				res, perr := lastLineResult(stdout)
				if perr != nil {
					return fmt.Errorf("%s (trace %d): %w", w, trace, perr)
				}
				failed = failed || !res.Correct
				set.Runs = append(set.Runs, runRecord{Workload: w, Seed: seed + int64(r), Trace: trace, Result: res})
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: wrote", out)
	}
	if failed {
		return errors.New("at least one run reported wrong outputs")
	}
	return nil
}

func lastLineResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	res := new(result)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
