package main

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

func stealSeries(shares ...float64) []window {
	ws := make([]window, len(shares))
	for i, s := range shares {
		ws[i] = window{dur: time.Second, steal: s, lat: []float64{float64(i + 1)}}
	}
	return ws
}

func TestQuietWindows(t *testing.T) {
	repeat := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		ws        []window
		wantQuiet int
		wantNoisy bool
	}{
		{"all quiet", stealSeries(repeat(24, 0.005)...), 24, false},
		{"exactly at the threshold", stealSeries(repeat(10, quietSteal)...), 10, false},
		{"none quiet", stealSeries(repeat(24, 0.30)...), minQuiet, true},
		{"steal column missing", stealSeries(repeat(24, -1)...), 24, false},
		{"too few quiet", stealSeries(0, 0.01, 0.4, 0.3, 0.2, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.5), minQuiet, true},
		{"short run, all noisy", stealSeries(0.3, 0.4, 0.5), 3, true},
		{"short run, all quiet", stealSeries(0, 0, 0), 3, false},
	} {
		used, _, noisy := quietWindows(tc.ws)
		if len(used) != tc.wantQuiet || noisy != tc.wantNoisy {
			t.Errorf("%s: %d windows used, noisy=%v; want %d, %v", tc.name, len(used), noisy, tc.wantQuiet, tc.wantNoisy)
		}
	}
	// The fallback keeps the least-stolen windows and still counts the quiet.
	used, quiet, _ := quietWindows(stealSeries(0, 0.01, 0.4, 0.3, 0.2, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.5))
	if quiet != 2 {
		t.Errorf("%d windows counted quiet, want 2", quiet)
	}
	for _, w := range used {
		if w.steal > 0.1 {
			t.Errorf("fallback kept a window with steal %.2f", w.steal)
		}
	}
}

func TestSummarizeUsesQuietWindowsOnly(t *testing.T) {
	var ws []window
	for i := 0; i < 10; i++ { // quiet: 100 operations of 2 ms in one second
		w := window{dur: time.Second, steal: 0.001, cpu: 500 * time.Millisecond, clientCPU: 100 * time.Millisecond, rssMB: 30}
		for k := 0; k < 100; k++ {
			w.lat = append(w.lat, 2)
		}
		ws = append(ws, w)
	}
	for i := 0; i < 5; i++ { // stolen: 10 operations of 50 ms
		w := window{dur: time.Second, steal: 0.4, cpu: time.Second, rssMB: 90}
		for k := 0; k < 10; k++ {
			w.lat = append(w.lat, 50)
		}
		ws = append(ws, w)
	}
	s := summarize(ws, 3)
	if s.windows != 15 || s.quiet != 10 || s.noisy {
		t.Fatalf("gate: %+v", s)
	}
	if s.jobsPerS != 300 || s.p50ms != 2 || s.p90ms != 2 || s.cpuMsPerJob != 500.0/300 || s.peakRSSMB != 30 {
		t.Errorf("estimators read the stolen windows: %+v", s)
	}
	if want := 0.4*5/15 + 0.001*10/15; s.stealShare < want-1e-9 || s.stealShare > want+1e-9 {
		t.Errorf("steal share %v, want %v", s.stealShare, want)
	}
}

// TestSummarizeReadsTheFastEnd: of eleven quiet windows doing 100 to 200
// operations of 1 to 2 ms, the fast tenth starts at the second best.
func TestSummarizeReadsTheFastEnd(t *testing.T) {
	var ws []window
	for i := 0; i <= 10; i++ {
		w := window{dur: time.Second, cpu: time.Duration(200-10*i) * time.Millisecond, rssMB: float64(20 + i)}
		for k := 0; k < 100+10*i; k++ {
			w.lat = append(w.lat, 2-float64(i)/10)
		}
		ws = append(ws, w)
	}
	s := summarize(ws, 1)
	if s.jobsPerS != 190 || s.p50ms != 1.1 || s.p90ms != 1.1 || s.cpuMsPerJob != 110.0/190 {
		t.Errorf("timings are not the fast tenth's: %+v", s)
	}
	if s.peakRSSMB != 25 {
		t.Errorf("peak RSS %v, want the median 25", s.peakRSSMB)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := percentile(xs, tc.p); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{7}, 0.9) != 7 {
		t.Error("percentile of an empty or single-element slice")
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

func TestFastest(t *testing.T) {
	const fill = time.Second
	// Long cycles: exactly setupCycles of them, the shortest reported.
	durs := []time.Duration{400, 300, 500, 200, 600, 250, 350}
	calls := 0
	got, err := fastest(fill, func() (time.Duration, error) { calls++; return durs[calls-1] * time.Millisecond, nil })
	if err != nil || got != 200*time.Millisecond || calls != setupCycles {
		t.Errorf("fastest = %v after %d cycles (%v), want 200ms after %d", got, calls, err, setupCycles)
	}
	// Cheap cycles repeat until they fill setupFill...
	calls = 0
	got, _ = fastest(fill, func() (time.Duration, error) { calls++; return fill/20 + time.Duration(calls), nil })
	if calls != 20 || got != fill/20+1 {
		t.Errorf("50 ms cycles: %d cycles, fastest %v; want 20 cycles", calls, got)
	}
	// ...but never more than setupCyclesMax times.
	calls = 0
	if _, _ = fastest(fill, func() (time.Duration, error) { calls++; return time.Microsecond, nil }); calls != setupCyclesMax {
		t.Errorf("1 us cycles ran %d times, want %d", calls, setupCyclesMax)
	}
	boom := errors.New("boom")
	if _, err := fastest(fill, func() (time.Duration, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("a failing cycle returned %v", err)
	}
}

func TestProcParsers(t *testing.T) {
	if v, ok := parseSteal("cpu  2097661 0 254652 1938117 12332 0 48009 117770 0 0\ncpu0 1 2 3\n"); !ok || v != 117770 {
		t.Errorf("steal = %d, %v", v, ok)
	}
	if _, ok := parseSteal("cpu  2097661 0 254652 1938117 12332 0 48009\n"); ok {
		t.Error("a /proc/stat without the steal column was read as having one")
	}
	if _, ok := parseSteal(""); ok {
		t.Error("an empty /proc/stat has no steal column")
	}
	stat := "1234 (tasqd (x) y) S 1 1 1 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 5 0 100 1000 200"
	if got := parseProcCPU(stat); got != 2*time.Second {
		t.Errorf("utime+stime = %v, want 2s", got)
	}
	if got, want := parseStatmMB("48012 5120 1533 520 0 30101 0\n"), 5120*float64(os.Getpagesize())/(1<<20); got != want {
		t.Errorf("resident set = %v MB, want %v", got, want)
	}
}

func TestSumSeries(t *testing.T) {
	text := `# HELP tasq_shed_total x
tasq_shed_total{reason="queue_full"} 3
tasq_shed_total{reason="deadline"} 4
tasq_shed_total_other 100
tasq_http_request_duration_seconds_sum{route="/v1/score"} 1.5
tasq_http_request_duration_seconds_sum{route="/v1/plan"} 9
tasq_curve_cache_hits_total 42
`
	for _, tc := range []struct {
		name, label string
		want        float64
	}{
		{"tasq_shed_total", "", 7},
		{"tasq_curve_cache_hits_total", "", 42},
		{"tasq_http_request_duration_seconds_sum", `route="/v1/score"`, 1.5},
		{"tasq_missing", "", 0},
	} {
		if got := sumSeries(text, tc.name, tc.label); got != tc.want {
			t.Errorf("sumSeries(%s, %s) = %v, want %v", tc.name, tc.label, got, tc.want)
		}
	}
}

// TestBenchmarkFileAgrees keeps BENCHMARK.json and the driver's metric
// tables in step, and inside the limits the benchmark contract sets.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why is %d characters), driver has %q", i, w.Name, len(w.Why), workloadOrder[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the driver %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), driver has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		// ISSUE 12: no bound wider than 0.10; a metric that cannot hold it
		// is a per-layer metric. setup_s alone cannot be one: the benchmark
		// contract requires it end to end, with the widest bound.
		ceiling := 0.10
		if m.Name == "setup_s" {
			ceiling = 0.25
		}
		if m.Bound <= 0 || m.Bound > ceiling || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s (%s): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), driver has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s (%s): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// smokeSizes shrink every input so that a workload's whole in-process
// path, traced pass included, runs in a fraction of a second. The ad-hoc
// pool still holds more keys than two short windows can send, so that
// every request stays a miss.
var smokeSizes = sizes{
	population: 48, train: 24, trees: 4, nnEpochs: 3, gnnEps: 1,
	recurringPool: 60, recurring: 16, adhoc: 256, adhocProbes: 4,
	batches: 2, batchJobs: 40, capacity: 200,
	layerRequests: 12, layerPlanCycles: 1, layerPlanHTTP: 1, layerReps: 1,
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, windows: 2, warm: 1, window: 50 * time.Millisecond,
		trace: trace, outDir: t.TempDir(), sz: smokeSizes,
	}
}

// TestWorkloadSmoke runs two short windows of every workload, serving in
// process where the full benchmark starts tasqd, end to end and traced.
func TestWorkloadSmoke(t *testing.T) {
	layersOf := map[string][]string{
		"score_recurring":  {"client.encode_us", "http.roundtrip_us", "http.healthz_us", "serve.handler_us", "serve.decode_us", "serve.key_us", "serve.score_local_us", "serve.encode_us", "serve.handler_allocs", "cache.hit_ratio", "serve.server_side_us"},
		"score_adhoc":      {"serve.handler_us", "serve.score_local_allocs", "features.extract_us", "trainer.score_job_us.nn", "trainer.score_job_us.gnn", "trainer.score_job_us.xgbpl", "trainer.score_job_us.xgbss"},
		"plan_local":       {"serve.plan_local_ms.fcfs", "serve.plan_local_ms.backfill", "serve.plan_local_ms.retry", "plan.build_ms.backfill", "plan.build_allocs.fcfs", "plan.simulate_ms.retry", "plan.summarize_us", "serve.plan_http_ms", "serve.plan_decode_ms", "serve.key_us"},
		"offline_pipeline": {"workload.generate_s", "jobrepo.ingest_s", "trainer.targets_s", "arepas.sweep_us", "trainer.train_s", "trainer.evaluate_s", "trainer.persist_s", "trainer.score_job_us.gnn"},
	}
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				out, err := workloads[name](smokeConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if len(out.problems) != 0 || out.failed != 0 || out.attempted < 1 {
					t.Errorf("attempted %d, failed %d, problems %v", out.attempted, out.failed, out.problems)
				}
				if out.sum.windows < 1 {
					t.Error("no windows")
				}
				for _, d := range append(append([]metricDef(nil), endToEnd...), windowTimings...) {
					// The smoke model is too small to beat Peak, so its saving
					// may be negative; it is still computed.
					if v := out.values[d.name]; !(v > 0) && !(d.name == "saved_vs_peak_pct" && v < 0) {
						t.Errorf("%s = %v, want above 0", d.name, v)
					}
				}
				if !trace {
					return
				}
				for _, l := range append(layersOf[name], "driver.client_cpu_ms_per_job") {
					if !(out.values[l] > 0) {
						t.Errorf("traced run left %s at %v", l, out.values[l])
					}
				}
				for k := range out.values {
					known := false
					for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
						known = known || d.name == k
					}
					if !known {
						t.Errorf("value %q is in no metric table", k)
					}
				}
			})
		}
	}
}

func TestSampleRecurringIsStratified(t *testing.T) {
	pool := recurringPool(smokeSizes)
	count := func(seed int64) map[string]int {
		out := map[string]int{}
		for _, j := range sampleRecurring(pool, 16, newRand(seed)) {
			out[j.Template]++
		}
		return out
	}
	a, b := count(1), count(2)
	total := 0
	for tmpl, n := range a {
		total += n
		if b[tmpl] != n {
			t.Errorf("template %s: %d jobs for seed 1, %d for seed 2", tmpl, n, b[tmpl])
		}
	}
	if total != 16 {
		t.Errorf("sampled %d jobs, want 16", total)
	}
}
