// Command bench is the TASQ benchmark: four workloads measured in
// steal-gated one-second windows against the commit's own tasqd binary
// and public package functions, plus a traced pass that times each layer
// from outside. BENCHMARK.json at the repository root names what it
// prints; README.md beside this file says why.
//
//	bash bench/run.sh --workload score_recurring --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh                 # all four workloads, end to end
//	bash bench/run.sh --selfcheck     # the suite twice, compared with its bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (bench_test.go checks that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"saved_vs_peak_pct", "%"},
	{"runtime_mape_pct", "%"},
}

// windowTimings are what the caller of a workload feels. ISSUE 12 made
// them end-to-end metrics with a bound of 0.10 and ruled that a timing that
// cannot hold 0.10 is demoted to a per-layer metric, not given a wider
// bound; on the host this was written on none of the four held it
// (README, "Bounds"). Every run still measures them: the traced run
// reports them, the end-to-end run prints them above its result.
var windowTimings = []metricDef{
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
}

// perLayer lists every layer metric. A traced run prints all of them; a
// layer the workload never reaches reads 0.
var perLayer = append(windowTimings[:len(windowTimings):len(windowTimings)], []metricDef{
	{"client.encode_us", "us"},
	{"http.roundtrip_us", "us"},
	{"http.healthz_us", "us"},
	{"http.transport_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.decode_us", "us"},
	{"serve.decode_allocs", "count"},
	{"serve.key_us", "us"},
	{"serve.score_local_us", "us"},
	{"serve.score_local_allocs", "count"},
	{"serve.encode_us", "us"},
	{"serve.handler_other_us", "us"},
	{"features.extract_us", "us"},
	{"trainer.score_job_us.nn", "us"},
	{"trainer.score_job_us.gnn", "us"},
	{"trainer.score_job_us.xgbpl", "us"},
	{"trainer.score_job_us.xgbss", "us"},
	{"pcc.optimal_tokens_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"serve.server_side_us", "us"},
	{"gate.shed_total", "count"},
	{"serve.plan_local_ms.fcfs", "ms"},
	{"serve.plan_local_ms.backfill", "ms"},
	{"serve.plan_local_ms.retry", "ms"},
	{"plan.build_ms.fcfs", "ms"},
	{"plan.build_ms.backfill", "ms"},
	{"plan.build_ms.retry", "ms"},
	{"plan.build_allocs.fcfs", "count"},
	{"plan.build_allocs.backfill", "count"},
	{"plan.build_allocs.retry", "count"},
	{"plan.simulate_ms.fcfs", "ms"},
	{"plan.simulate_ms.backfill", "ms"},
	{"plan.simulate_ms.retry", "ms"},
	{"plan.summarize_us", "us"},
	{"serve.plan_resolve_ms", "ms"},
	{"serve.plan_decode_ms", "ms"},
	{"serve.plan_encode_ms", "ms"},
	{"serve.plan_http_ms", "ms"},
	{"workload.generate_s", "s"},
	{"jobrepo.ingest_s", "s"},
	{"trainer.targets_s", "s"},
	{"arepas.sweep_us", "us"},
	{"trainer.train_s", "s"},
	{"trainer.train_xgb_s", "s"},
	{"trainer.train_nn_s", "s"},
	{"trainer.train_gnn_s", "s"},
	{"trainer.evaluate_s", "s"},
	{"trainer.persist_s", "s"},
	{"driver.windows_quiet", "count"},
	{"driver.steal_share", "ratio"},
	{"driver.client_cpu_ms_per_job", "ms"},
	{"driver.trace_overhead_pct", "%"},
}...)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	windows  int           // timed windows; -seconds with the default window
	warm     int           // warm-up windows, discarded
	window   time.Duration // one second outside the tests
	// setupFill is how long cheap set-up cycles go on repeating.
	setupFill time.Duration
	trace     bool
	tasqd     string // path of the tasqd binary; "" serves in process (tests)
	outDir    string
	sz        sizes
}

// outcome is what a workload hands back: metric values by name plus the
// counts and the gate's verdict.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	// problems lists every check that did not hold; any entry makes the
	// run incorrect.
	problems []string
	// notes are printed with the report, above the metrics.
	notes []string
	sum   summary
	// windows are the timed windows, kept for the per-window dump.
	windows []window
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"score_recurring":  func(c runConfig) (*outcome, error) { return runScore(c, false) },
	"score_adhoc":      func(c runConfig) (*outcome, error) { return runScore(c, true) },
	"plan_local":       runPlan,
	"offline_pipeline": runOffline,
}

var workloadOrder = []string{"score_recurring", "score_adhoc", "plan_local", "offline_pipeline"}

func main() {
	cfg := runConfig{warm: 3, window: time.Second, setupFill: time.Second, sz: fullSizes}
	seconds := flag.Int("seconds", 24, "timed one-second windows per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end run")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end suite twice and compare the runs with BENCHMARK.json's bounds")
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadOrder, ", ")+"; empty runs all four")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.StringVar(&cfg.tasqd, "tasqd", filepath.Join("bench", "out", "tasqd"), "tasqd binary the score workloads start")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for the model file, tasqd's log and the trace")
	flag.Parse()
	cfg.windows, cfg.trace = *seconds, *trace == 1
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg)
	case cfg.workload == "":
		for _, name := range workloadOrder {
			if _, err = runChild(cfg, name); err != nil {
				break
			}
		}
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report; the
// last line is the result object.
func runOne(cfg runConfig) error {
	run, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	out, err := run(cfg)
	if err != nil {
		return err
	}
	if err := dumpWindows(filepath.Join(cfg.outDir, cfg.workload+".windows.json"), out.windows); err != nil {
		return err
	}
	res := result{Correct: len(out.problems) == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	_, stealOK := readSteal()
	fmt.Printf("# workload=%s seed=%d trace=%v windows=%d quiet=%d noisy=%v steal_share=%.4f\n",
		cfg.workload, cfg.seed, cfg.trace, out.sum.windows, out.sum.quiet, out.sum.noisy, out.sum.stealShare)
	fmt.Printf("# host: nproc=%d gomaxprocs=%d go=%s kernel=%s steal_reported=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), stealOK)
	if out.sum.noisy {
		fmt.Printf("# noisy: true — fewer than %d of %d windows had steal at or under %.0f%%; the %d least-stolen were used\n",
			minQuiet, out.sum.windows, quietSteal*100, min(minQuiet, out.sum.windows))
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	for _, p := range out.problems {
		fmt.Println("# INCORRECT:", p)
	}
	defs := perLayer
	if !cfg.trace {
		defs = endToEnd
		for _, d := range windowTimings {
			fmt.Printf("# %-30s %14.4f %s\n", d.name, out.values[d.name], d.unit)
		}
	}
	for _, d := range defs {
		v := out.values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %14.4f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one workload in a fresh process, so that peak RSS, the
// heap and the scheduler start as they do when the workload runs alone,
// and returns its result object.
func runChild(cfg runConfig, name string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.windows),
		"-trace", trace, "-tasqd", cfg.tasqd, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	os.Stdout.Write(raw)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s: last line is no result object: %w", name, err)
	}
	// An end-to-end run prints the window timings above its result, as
	// "# name value unit"; the self-check shows them too.
	for _, line := range lines {
		f := strings.Fields(line)
		for _, d := range windowTimings {
			if len(f) == 4 && f[0] == "#" && f[1] == d.name {
				if v, err := strconv.ParseFloat(f[2], 64); err == nil {
					res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
				}
			}
		}
	}
	return &res, nil
}

// timings copies what the windows gave into the metrics.
func (o *outcome) timings() {
	o.values["jobs_per_s"] = o.sum.jobsPerS
	o.values["latency_p50_ms"] = o.sum.p50ms
	o.values["latency_p90_ms"] = o.sum.p90ms
	o.values["cpu_ms_per_job"] = o.sum.cpuMsPerJob
	o.values["peak_rss_mb"] = o.sum.peakRSSMB
}

// driverLayers fills the per-layer numbers every workload shares. opSpan
// names the traced pass's span around the same operation the timed windows
// ran with tracing off; how much longer it took there (one caller, spans
// and malloc counters on) is what the traced pass costs.
func driverLayers(out *outcome, tr *tracer, opSpan string) {
	out.values["driver.windows_quiet"] = float64(out.sum.quiet)
	out.values["driver.steal_share"] = out.sum.stealShare
	out.values["driver.client_cpu_ms_per_job"] = out.sum.clientCPUMs
	if l := tr.layers()[opSpan]; l != nil && out.sum.p50ms > 0 {
		out.values["driver.trace_overhead_pct"] = 100 * (median(l.durUs)/1e3 - out.sum.p50ms) / out.sum.p50ms
	}
}

// dumpWindows writes what each window saw, so that a surprising median
// can be traced to the windows behind it.
func dumpWindows(path string, ws []window) error {
	type row struct {
		Seconds    float64 `json:"seconds"`
		StealShare float64 `json:"steal_share"`
		Ops        int     `json:"ops"`
		P50Ms      float64 `json:"p50_ms"`
		P90Ms      float64 `json:"p90_ms"`
		CPUSeconds float64 `json:"cpu_seconds"`
		PeakRSSMB  float64 `json:"peak_rss_mb"`
	}
	rows := make([]row, len(ws))
	for i, w := range ws {
		lat := append([]float64(nil), w.lat...)
		sort.Float64s(lat)
		rows[i] = row{w.dur.Seconds(), w.steal, len(lat), percentile(lat, 0.5), percentile(lat, 0.9), w.cpu.Seconds(), w.rssMB}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
