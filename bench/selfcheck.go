package main

// -selfcheck: the end-to-end suite twice on the same code, each run in a
// fresh process, compared with the bounds BENCHMARK.json fixes. A metric
// that cannot hold its bound between two runs of identical code cannot
// tell a regression from the weather.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// worsening returns by what share of first the second value is worse, in
// the metric's own direction; negative when it is better.
func worsening(first, second float64, better string) float64 {
	if first == 0 {
		return 0
	}
	if better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}

// exactMetrics are computed, not timed: two runs of the same code on the
// same seed must print the same number, whatever bound a later change gets.
var exactMetrics = map[string]bool{"saved_vs_peak_pct": true, "runtime_mape_pct": true}

func runSelfcheck(cfg runConfig) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg.trace = false
	passes := [2]map[string]*result{{}, {}}
	for pass := range passes {
		for _, name := range workloadOrder {
			res, err := runChild(cfg, name)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("pass %d of %s: correct=%v failed=%d", pass+1, name, res.Correct, res.Failed)
			}
			passes[pass][name] = res
		}
	}
	fmt.Printf("\n%-17s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	exceeded := 0
	for _, name := range workloadOrder {
		for _, m := range bf.EndToEnd {
			a, b := passes[0][name].Metrics[m.Name].Value, passes[1][name].Metrics[m.Name].Value
			// Either run may be the unlucky one, so the difference is taken
			// in both directions.
			diff := max(worsening(a, b, m.Better), worsening(b, a, m.Better))
			verdict := ""
			switch {
			case exactMetrics[m.Name] && a != b:
				verdict = "  NOT IDENTICAL"
				exceeded++
			case diff > m.Bound:
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-17s %-18s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
		// The window timings carry no bound; how far two runs of the same
		// code put them apart is on record all the same.
		for _, d := range windowTimings {
			a, b := passes[0][name].Metrics[d.name].Value, passes[1][name].Metrics[d.name].Value
			fmt.Printf("%-17s %-18s %14.4f %14.4f %8.2f%% %7s\n", name, d.name, a, b, 100*math.Abs(a-b)/min(a, b), "-")
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("self-check: %d workload/metric pairs differ by more than their bound, or differ at all where they must not", exceeded)
	}
	fmt.Println("self-check: two runs of the same code agree within every bound")
	return nil
}
