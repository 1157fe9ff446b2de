package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json — the contract this benchmark
// is run and judged by — that the benchmark itself reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// untracedValues collects one end-to-end metric's values over a
// workload's untraced runs.
func (s *resultSet) untracedValues(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 && r.Result != nil {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// Verdicts of one (workload, metric) row.
const (
	verdictAgree      = "agree"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// compareMetric judges b against a for one metric: unresolved when
// either side's own run-to-run spread (interquartile range over median)
// is wider than the bound, regressed when b's median is worse than a's
// by more than the bound, otherwise agree.
func compareMetric(spec metricSpec, a, b []float64) (verdict string, medA, medB, spread float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing, 0, 0, 0
	}
	medA, medB = median(a), median(b)
	spread = max(quartileSpread(a), quartileSpread(b))
	if spread > spec.Bound {
		return verdictUnresolved, medA, medB, spread
	}
	worse := (medB - medA) / medA
	if spec.Better == "higher" {
		worse = (medA - medB) / medA
	}
	if worse > spec.Bound {
		return verdictRegressed, medA, medB, spread
	}
	return verdictAgree, medA, medB, spread
}

// checkFiles prints one row per (workload, end-to-end metric) and
// reports whether any row regressed or went missing, or any run of b
// produced wrong outputs.
func checkFiles(spec *benchSpec, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-14s %-16s %-7s %6s %14s %14s %8s %8s  %s\n", "workload", "metric", "better", "bound", "median a", "median b", "change", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			verdict, medA, medB, spread := compareMetric(m, a.untracedValues(wl.Name, m.Name), b.untracedValues(wl.Name, m.Name))
			change := 0.0
			if medA != 0 {
				change = (medB - medA) / medA
			}
			fmt.Fprintf(w, "%-14s %-16s %-7s %6.3f %14.4f %14.4f %+7.2f%% %7.2f%%  %s\n",
				wl.Name, m.Name, m.Better, m.Bound, medA, medB, 100*change, 100*spread, verdict)
			bad = bad || verdict == verdictRegressed || verdict == verdictMissing
		}
	}
	for _, r := range b.Runs {
		if r.Result != nil && !r.Result.Correct {
			fmt.Fprintf(w, "%s seed %d trace %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
			bad = true
		}
	}
	return bad, nil
}
