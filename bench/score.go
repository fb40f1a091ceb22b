package main

// score_recurring and score_adhoc: POST /v1/score against a real tasqd
// over loopback, closed loop, every answer checked against an oracle.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tasq/internal/scopesim"
	"tasq/internal/serve"
)

// expect is the oracle's answer for one (job, model) pair.
type expect struct {
	optimal int
	a, b    float64
}

// scoreAnswer is the part of a /v1/score response the driver checks,
// decoded with the driver's own type.
type scoreAnswer struct {
	OptimalTokens int `json:"optimal_tokens"`
	Curve         struct {
		A float64 `json:"a"`
		B float64 `json:"b"`
	} `json:"curve"`
}

// scoreInputs is a score workload's request sequence. Request i names
// model i mod M of job (i div M) mod J: the models alternate within every
// window, so all windows carry the same mix of predictors, and a key
// returns only after J×M others.
type scoreInputs struct {
	jobs   []*scopesim.Job
	models []string
	prefix [][]byte // per job
	suffix [][]byte // per model
	want   []expect // [job×M + model]
	// probes are jobs outside the sequence, for set-up requests that must
	// not seed the cache with a timed key; nil on score_recurring, whose
	// set-up warms the timed keys on purpose.
	probes []*scopesim.Job
}

func (in *scoreInputs) pick(i int64) (job, model int) {
	m := int64(len(in.models))
	return int(i / m % int64(len(in.jobs))), int(i % m)
}

func (in *scoreInputs) body(dst []byte, job, model int) []byte {
	return append(append(dst[:0], in.prefix[job]...), in.suffix[model]...)
}

// newScoreInputs generates the jobs, pre-encodes the bodies and asks the
// oracle for every expected answer.
func newScoreInputs(f *fixture, oracle *serve.Server, adhoc bool, seed int64) (*scoreInputs, error) {
	in := &scoreInputs{models: []string{""}}
	if adhoc {
		in.models = adhocModels
		pool := adhocPool(f.sz.adhoc+f.sz.adhocProbes, seed)
		in.jobs, in.probes = pool[:f.sz.adhoc], pool[f.sz.adhoc:]
	} else {
		in.jobs = sampleRecurring(recurringPool(f.sz), f.sz.recurring, newRand(seed))
	}
	for _, m := range in.models {
		in.suffix = append(in.suffix, modelSuffix(m))
	}
	in.prefix = make([][]byte, len(in.jobs))
	in.want = make([]expect, len(in.jobs)*len(in.models))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(in.jobs); j += workers {
				err := in.prepare(oracle, j)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return in, firstErr
}

func (in *scoreInputs) prepare(oracle *serve.Server, j int) error {
	var err error
	if in.prefix[j], err = jobPrefix(in.jobs[j]); err != nil {
		return err
	}
	for m, name := range in.models {
		resp, err := oracle.ScoreLocal(&serve.ScoreRequest{Job: in.jobs[j], Model: name})
		if err != nil {
			return fmt.Errorf("oracle: job %s model %q: %w", in.jobs[j].ID, name, err)
		}
		in.want[j*len(in.models)+m] = expect{optimal: resp.OptimalTokens, a: resp.Curve.A, b: resp.Curve.B}
		resp.Release()
	}
	return nil
}

// scoreTarget is a serving process under load.
type scoreTarget struct {
	url string
	pid int // 0 = this process (the tests' in-process server)
	// stop ends the process and waits for it.
	stop func() error
}

// startTasqd execs tasqd with its default flags on a free loopback port
// and returns once /readyz answers 200.
func startTasqd(bin, model, logPath string) (*scoreTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-model", model, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t := &scoreTarget{url: "http://" + addr, pid: cmd.Process.Pid}
	t.stop = func() error {
		defer logFile.Close()
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			return err
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			return errors.New("tasqd ignored SIGTERM for 20 s and was killed")
		}
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(t.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return t, nil
			}
		}
		select {
		case err := <-exited:
			logFile.Close()
			return nil, fmt.Errorf("tasqd exited before it was ready (%v); see %s", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			_ = t.stop()
			return nil, fmt.Errorf("tasqd not ready after 30 s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveInProcess stands in for tasqd where no binary is built: the same
// handler behind a loopback listener in this process.
func serveInProcess(f *fixture) (*scoreTarget, error) {
	srv, err := f.oracle()
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &scoreTarget{url: ts.URL, stop: func() error { ts.Close(); return nil }}, nil
}

// scoreClient is one connection's worth of client state.
type scoreClient struct {
	http *http.Client
	body []byte
	resp bytes.Buffer
}

func newScoreClient() *scoreClient {
	return &scoreClient{http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// do sends one request and reads the whole answer into c.resp.
func (c *scoreClient) do(method, url string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// score posts request (job, model) and checks the answer against the
// oracle. The returned latency ends when the last response byte is read;
// decoding and comparing are the driver's own work.
func (c *scoreClient) score(url string, in *scoreInputs, job, model int) (time.Duration, error) {
	c.body = in.body(c.body, job, model)
	start := time.Now()
	status, err := c.do(http.MethodPost, url+"/v1/score", c.body)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, checkAnswer(status, c.resp.Bytes(), in.want[job*len(in.models)+model])
}

func checkAnswer(status int, body []byte, want expect) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var got scoreAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if got.OptimalTokens != want.optimal || got.Curve.A != want.a || got.Curve.B != want.b {
		return fmt.Errorf("answer (%d tokens, a=%v b=%v) differs from the oracle's (%d, a=%v b=%v)",
			got.OptimalTokens, got.Curve.A, got.Curve.B, want.optimal, want.a, want.b)
	}
	return nil
}

// serverCounters are the /metrics series the driver reads as deltas.
type serverCounters struct{ hits, misses, shed, durSum, durCount float64 }

func scrapeCounters(c *scoreClient, url string) (serverCounters, error) {
	status, err := c.do(http.MethodGet, url+"/metrics", nil)
	if err != nil || status != http.StatusOK {
		return serverCounters{}, fmt.Errorf("scraping /metrics: status %d: %v", status, err)
	}
	text := c.resp.String()
	route := `route="/v1/score"`
	return serverCounters{
		hits:     sumSeries(text, "tasq_curve_cache_hits_total", ""),
		misses:   sumSeries(text, "tasq_curve_cache_misses_total", ""),
		shed:     sumSeries(text, "tasq_shed_total", ""),
		durSum:   sumSeries(text, "tasq_http_request_duration_seconds_sum", route),
		durCount: sumSeries(text, "tasq_http_request_duration_seconds_count", route),
	}, nil
}

// sumSeries adds up every sample of a metric whose label block contains
// label ("" = any) in a Prometheus text exposition.
func sumSeries(text, name, label string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		if i < 0 || !strings.Contains(rest[:i], label) {
			continue
		}
		v, _ := strconv.ParseFloat(rest[i+1:], 64)
		sum += v
	}
	return sum
}

func (a serverCounters) minus(b serverCounters) serverCounters {
	return serverCounters{a.hits - b.hits, a.misses - b.misses, a.shed - b.shed, a.durSum - b.durSum, a.durCount - b.durCount}
}

// runScore is both score workloads; adhoc selects the never-seen keys.
func runScore(cfg runConfig, adhoc bool) (*outcome, error) {
	f, err := buildFixture(cfg.sz, cfg.outDir)
	if err != nil {
		return nil, err
	}
	oracle, err := f.oracle()
	if err != nil {
		return nil, err
	}
	in, err := newScoreInputs(f, oracle, adhoc, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{"runtime_mape_pct": f.mapePct}}
	if out.values["saved_vs_peak_pct"], err = savedVsPeakPct(oracle, heldOutJobs(f.heldOut), cfg.sz.capacity); err != nil {
		return nil, err
	}

	start := func() (*scoreTarget, error) {
		if cfg.tasqd == "" {
			return serveInProcess(f)
		}
		return startTasqd(cfg.tasqd, f.modelPath, filepath.Join(cfg.outDir, cfg.workload+".tasqd.log"))
	}
	// One cold cycle: exec, ready, then the requests that bring the daemon
	// to the state the timed run needs. The last cycle's daemon stays up.
	ctl := newScoreClient()
	var target *scoreTarget
	cycles := 0
	setup, err := fastest(cfg.setupFill, func() (time.Duration, error) {
		if target != nil {
			if err := target.stop(); err != nil {
				return 0, fmt.Errorf("stopping tasqd: %w", err)
			}
		}
		cycles++
		t0 := time.Now()
		var err error
		if target, err = start(); err != nil {
			return 0, err
		}
		if adhoc {
			err = warmAdhoc(ctl, target.url, in)
		} else {
			for j := range in.jobs {
				if _, err = ctl.score(target.url, in, j, 0); err != nil {
					break
				}
			}
		}
		return time.Since(t0), err
	})
	if target != nil {
		defer target.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up cycle %d: %w", cycles, err)
	}
	out.values["setup_s"] = setup.Seconds()

	workers := min(runtime.NumCPU(), 2)
	clients := make([]*scoreClient, workers)
	for w := range clients {
		clients[w] = newScoreClient()
	}
	before, err := scrapeCounters(ctl, target.url)
	if err != nil {
		return nil, err
	}
	ws, stats := runWindows(loadConfig{
		workers: workers, warm: cfg.warm, timed: cfg.windows, window: cfg.window, pid: target.pid,
	}, func(w int, i int64) (time.Duration, error) {
		job, model := in.pick(i)
		return clients[w].score(target.url, in, job, model)
	})
	after, err := scrapeCounters(ctl, target.url)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = stats.attempted, stats.failed
	out.sum, out.windows = summarize(ws, 1), ws

	// Every request the loop sent must have taken the path the workload is
	// named for: the server's own counters are the proof.
	delta := after.minus(before)
	sent := float64(stats.attempted)
	switch {
	case adhoc && (delta.hits != 0 || delta.misses != sent):
		out.problemf("score_adhoc sent %v requests but tasqd counted %v cache misses and %v hits", sent, delta.misses, delta.hits)
	case !adhoc && (delta.misses != 0 || delta.hits != sent):
		out.problemf("score_recurring sent %v requests but tasqd counted %v cache hits and %v misses", sent, delta.hits, delta.misses)
	}
	if delta.shed != 0 {
		out.problemf("the admission gate shed %v requests of a %d-connection closed loop", delta.shed, workers)
	}

	out.timings()
	if cfg.trace {
		out.values["cache.hit_ratio"] = delta.hits / (delta.hits + delta.misses)
		out.values["gate.shed_total"] = delta.shed
		if delta.durCount > 0 {
			out.values["serve.server_side_us"] = delta.durSum / delta.durCount * 1e6
		}
		tr := newTracer()
		if err := scoreLayers(cfg, f, in, target, tr, int64(stats.attempted), out); err != nil {
			return nil, err
		}
		driverLayers(out, tr, "http.roundtrip")
		if err := tr.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmAdhoc scores every probe job under every predictor: each predictor's
// first use and a working set of inserts, without caching a key the timed
// run uses.
func warmAdhoc(c *scoreClient, url string, in *scoreInputs) error {
	for _, job := range in.probes {
		prefix, err := jobPrefix(job)
		if err != nil {
			return err
		}
		for m := range in.models {
			c.body = append(append(c.body[:0], prefix...), in.suffix[m]...)
			if status, err := c.do(http.MethodPost, url+"/v1/score", c.body); err != nil || status != http.StatusOK {
				return fmt.Errorf("probe request for model %q: status %d: %v", in.models[m], status, err)
			}
		}
	}
	return nil
}
