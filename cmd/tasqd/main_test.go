package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"tasq/internal/autopilot"
	"tasq/internal/jobrepo"
	"tasq/internal/model"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

func TestRunMissingModel(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.gob")
	if err := run(context.Background(), []string{"-model", missing, "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunBadAddr(t *testing.T) {
	path := trainModel(t)
	if err := run(context.Background(), []string{"-model", path, "-addr", "256.256.256.256:0"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestRefusedSettings pins that a setting meaning nothing is refused,
// through the server constructors and through tasqd at startup, with an
// error naming it, where it used to be coerced to a default silently.
// Rows without an option have no constructor route, rows without a flag
// no tasqd route. tasqd runs in autopilot mode and must refuse before it opens the registry or creates
// the telemetry window, so the registry directory stays empty.
func TestRefusedSettings(t *testing.T) {
	for _, tc := range []struct {
		name, flag, value string
		opt               serve.Option
	}{
		{"workers", "", "-3", serve.WithWorkers(-3)},
		{"workers", "", "0", serve.WithWorkers(0)},
		{"max-inflight", "max-inflight", "0", serve.WithAdmission(0, serve.DefaultMaxQueue, serve.DefaultQueueWait)},
		{"max-queue", "max-queue", "-1", serve.WithAdmission(serve.DefaultMaxInFlight, -1, serve.DefaultQueueWait)},
		{"max-queue", "max-queue", "-2", serve.WithAdmission(serve.DefaultMaxInFlight, -2, serve.DefaultQueueWait)},
		{"queue-wait", "", "0s", serve.WithAdmission(serve.DefaultMaxInFlight, serve.DefaultMaxQueue, 0)},
		{"queue-wait", "", "-1s", serve.WithAdmission(serve.DefaultMaxInFlight, serve.DefaultMaxQueue, -time.Second)},
		{"shadow-sample", "shadow-sample", "7", serve.WithShadowSampleRate(7)},
		{"shadow-sample", "shadow-sample", "-0.5", serve.WithShadowSampleRate(-0.5)},
		{"shadow-sample", "shadow-sample", "NaN", serve.WithShadowSampleRate(math.NaN())},
		{"max-plan-jobs", "", "0", serve.WithMaxPlanJobs(0)},
		{"poll", "poll", "0s", nil},
		{"drain", "drain", "-1s", nil},
		{"grace", "grace", "-1s", nil},
		{"drift-threshold", "drift-threshold", "0", nil},
		{"drift-threshold", "drift-threshold", "-0.1", nil},
		{"drift-threshold", "drift-threshold", "NaN", nil},
		{"promote-min-n", "promote-min-n", "0", nil},
		{"guardrail-window", "guardrail-window", "0", nil},
		{"policy", "policy", "resnet", nil},
	} {
		row := tc.name + " " + tc.value
		if tc.opt != nil {
			_, loaded := serve.NewServer(&trainer.Pipeline{}, tc.opt)
			_, unloaded := serve.NewUnloadedServer(tc.opt)
			for route, err := range map[string]error{"NewServer": loaded, "NewUnloadedServer": unloaded} {
				if err == nil || !strings.Contains(err.Error(), tc.name) {
					t.Errorf("%s via %s: err %v, want a refusal naming %s", row, route, err, tc.name)
				}
			}
		}
		if tc.flag != "" {
			// An empty registry would fail the first sync anyway; the
			// refusal must come first and name the flag.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			dir := t.TempDir()
			err := run(ctx, []string{"-registry", dir, "-autopilot", "-addr", "127.0.0.1:0", "-quiet", "-" + tc.flag, tc.value})
			cancel()
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%s via tasqd: err %v, want a refusal naming -%s", row, err, tc.flag)
			}
			if left, _ := os.ReadDir(dir); len(left) > 0 {
				t.Errorf("%s via tasqd: refused after creating %s in the registry", row, left[0].Name())
			}
		}
	}
}

// TestDefaultSettingsLine reads the settings line tasqd logs with no
// flags: one JSON line holding each of its 18 flags' effective values,
// which must be what the server ran with before the defaults had one
// owner — default admission (256 in flight, 512 queued), every request
// shadowed. TestServerDefaults pins the settings tasqd has no flag for.
func TestDefaultSettingsLine(t *testing.T) {
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // nothing may stay up, should a model.gob be in reach
	_ = run(ctx, nil)
	log.SetOutput(prev)

	var lines []map[string]any
	for _, line := range strings.Split(buf.String(), "\n") {
		var m map[string]any
		if json.Unmarshal([]byte(line), &m) == nil && m["event"] == "settings" {
			lines = append(lines, m)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%d settings lines in the log, want 1:\n%s", len(lines), buf.String())
	}
	got := lines[0]
	delete(got, "event")
	delete(got, "ts")
	want := map[string]any{
		"addr": ":8080", "model": "model.gob", "registry": "", "poll": "10s",
		"shadow-sample": 1.0, "drain": "15s", "grace": "0s",
		"max-inflight": 256.0, "max-queue": 512.0,
		"autopilot": false, "drift-threshold": 0.5, "promote-min-n": 32.0,
		"guardrail-window": 64.0, "fault-profile": "", "policy": "",
		"cluster-id": "", "peers": "", "quiet": false,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("settings line\n got %v\nwant %v", got, want)
	}
}

// TestHTTPServerLimits pins the daemon's listener: 30 s to read a request
// (10 s for its header), 60 s to write a response, 120 s idle, and
// net/http's 1 MiB header limit.
func TestHTTPServerLimits(t *testing.T) {
	s := httpServer(nil)
	got := []time.Duration{s.ReadTimeout, s.ReadHeaderTimeout, s.WriteTimeout, s.IdleTimeout}
	want := []time.Duration{30 * time.Second, 10 * time.Second, 60 * time.Second, 120 * time.Second}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read, read-header, write, idle timeouts %v, want %v", got, want)
	}
	if s.MaxHeaderBytes != 0 || http.DefaultMaxHeaderBytes != 1<<20 {
		t.Errorf("header limit %d (net/http default %d), want net/http's 1 MiB", s.MaxHeaderBytes, http.DefaultMaxHeaderBytes)
	}
}

// helpText runs tasqd -h and returns what it prints.
func helpText(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	err = run(context.Background(), []string{"-h"})
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("tasqd -h: %v, want the flag list", err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestREADMEFlagTable: README's tasqd flag table is tasqd -h, row for row
// (name, default, meaning), and every flag on a README line that runs
// tasqd is one tasqd defines. -h omits a zero default; the table spells it
// out for the flag's type.
func TestREADMEFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	zero := map[string]string{"": "false", "string": `""`, "duration": "0s", "int": "0", "float": "0"}
	var want []string
	defined := map[string]bool{}
	for _, block := range strings.Split(helpText(t), "\n  -")[1:] {
		head, usage, _ := strings.Cut(strings.TrimSpace(block), "\n    \t")
		name, typ, _ := strings.Cut(head, " ")
		def := zero[typ]
		if i := strings.LastIndex(usage, " (default "); i >= 0 && strings.HasSuffix(usage, ")") {
			usage, def = usage[:i], usage[i+len(" (default "):len(usage)-1]
		}
		want = append(want, fmt.Sprintf("| `-%s` | `%s` | %s |", name, def, usage))
		defined[name] = true
	}
	if len(want) != 18 {
		t.Errorf("tasqd -h lists %d flags, want 18", len(want))
	}

	lines := strings.Split(string(readme), "\n")
	var got []string
	for i, line := range lines {
		if line == "| Flag | Default | Meaning |" {
			for _, row := range lines[i+2:] {
				if !strings.HasPrefix(row, "|") {
					break
				}
				got = append(got, row)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("README flag table\n%s\nwant, from tasqd -h,\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	command := regexp.MustCompile(`^(?:go run \./cmd/)?tasqd( .*)?$`)
	flagArg := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	checked := 0
	for _, line := range lines {
		m := command.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		args, _, _ := strings.Cut(m[1], " #")
		for _, f := range flagArg.FindAllStringSubmatch(args, -1) {
			checked++
			if !defined[f[1]] {
				t.Errorf("README runs %q: tasqd defines no -%s", line, f[1])
			}
		}
	}
	if checked == 0 {
		t.Error("no tasqd example line with flags found in README.md")
	}
}

// trainModel persists a small trained pipeline and returns its path plus a
// scorable job via the second return.
func trainModel(t *testing.T) string {
	t.Helper()
	path, _ := trainModelWithJob(t)
	return path
}

func trainModelWithJob(t *testing.T) (string, *scopesim.Job) {
	t.Helper()
	g := workload.New(workload.TestConfig(7))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(40), &ex); err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig(7)
	cfg.XGB.NumTrees = 10
	cfg.NN.Epochs = 10
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := trainer.SavePipelineFile(p, path); err != nil {
		t.Fatal(err)
	}
	return path, repo.All()[0].Job
}

// TestGracefulShutdownOnSIGTERM exercises the full drain choreography
// against a live tasqd: an in-flight request is held open, SIGTERM
// arrives, /readyz flips to draining while the listener is still up
// (readiness grace), the in-flight request completes with a 200, and run
// returns cleanly within the drain deadline.
func TestGracefulShutdownOnSIGTERM(t *testing.T) {
	modelPath, job := trainModelWithJob(t)

	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	defer func() { testOnListen = nil }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-model", modelPath,
			"-addr", "127.0.0.1:0",
			"-grace", "2s",
			"-drain", "10s",
			"-quiet",
		})
	}()

	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	baseURL := "http://" + addr.String()
	client := serve.NewClient(baseURL)
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := client.Ready(context.Background()); err != nil {
		t.Fatalf("fresh daemon not ready: %v", err)
	}

	// Hold a scoring request in flight: send the headers and half the
	// body, so the handler blocks reading the rest.
	payload, err := json.Marshal(&serve.ScoreRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := len(payload) / 2
	fmt.Fprintf(conn, "POST /v1/score HTTP/1.1\r\nHost: tasqd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(payload))
	if _, err := conn.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	// Wait until the admission gate has actually admitted the held-open
	// request: the drain contract finishes admitted work but refuses
	// anything still outside the gate, so firing SIGTERM earlier would
	// legitimately shed this request with 503.
	admitted := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		m, err := client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(m, "tasq_admission_in_flight 1\n") {
			admitted = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !admitted {
		t.Fatal("held-open request never entered the admission gate")
	}

	// SIGTERM: the daemon must flip /readyz to draining and keep the
	// listener open for the grace period.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	draining := false
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		err := client.Ready(context.Background())
		if se, ok := err.(*serve.StatusError); ok && se.Code == http.StatusServiceUnavailable {
			draining = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !draining {
		t.Fatal("/readyz never reported draining after SIGTERM")
	}

	// Complete the in-flight request; it must still be answered.
	if _, err := conn.Write(payload[half:]); err != nil {
		t.Fatalf("writing body tail during drain: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading in-flight response during drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200", resp.StatusCode)
	}
	var scored serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&scored); err != nil {
		t.Fatal(err)
	}
	if scored.Model == "" || len(scored.Predictions) == 0 {
		t.Fatalf("in-flight response incomplete: %+v", scored)
	}

	// The daemon exits cleanly within the drain deadline.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within the drain deadline")
	}
}

// TestRegistryModeHotReload boots tasqd against a model registry with a
// deliberately long poll interval, then proves both out-of-band reload
// paths: publish v2 → POST /v1/admin/reload swaps the active model, and
// publish v3 → SIGHUP swaps again — all without restarting the daemon,
// observed through the /metrics version gauge and response versions.
func TestRegistryModeHotReload(t *testing.T) {
	g := workload.New(workload.TestConfig(11))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(40), &ex); err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig(11)
	cfg.XGB.NumTrees = 10
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := repo.All()[0].Job

	store := filepath.Join(t.TempDir(), "models")
	reg, err := registry.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PublishPipeline(p, registry.Manifest{Notes: "v1"}); err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	defer func() { testOnListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-registry", store,
			"-poll", "1h", // only SIGHUP/admin may trigger the swaps below
			"-addr", "127.0.0.1:0",
			"-quiet",
		})
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	client := serve.NewClient("http://" + addr.String())

	resp, err := client.Score(context.Background(), &serve.ScoreRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != 1 {
		t.Fatalf("initial model version %d, want 1", resp.ModelVersion)
	}

	// Publish v2 and reload through the admin endpoint.
	if _, err := reg.PublishPipeline(p, registry.Manifest{Notes: "v2"}); err != nil {
		t.Fatal(err)
	}
	out, err := client.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.ActiveVersion != 2 {
		t.Fatalf("admin reload landed on v%d, want v2", out.ActiveVersion)
	}

	// Publish v3 and reload via SIGHUP.
	if _, err := reg.PublishPipeline(p, registry.Manifest{Notes: "v3"}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	swapped := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m, err := client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(m, `tasq_model_version{role="active"} 3`+"\n") {
			swapped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !swapped {
		t.Fatal("SIGHUP never swapped the active model to v3")
	}
	resp, err = client.Score(context.Background(), &serve.ScoreRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != 3 {
		t.Fatalf("post-SIGHUP model version %d, want 3", resp.ModelVersion)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after context cancel")
	}
}

// TestRegistryModeEmptyRegistryRefusesToStart pins the fail-fast
// contract: with no published versions, the daemon exits with an error
// instead of serving 503s forever.
func TestRegistryModeEmptyRegistryRefusesToStart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "models")
	if err := run(context.Background(), []string{"-registry", store, "-addr", "127.0.0.1:0", "-quiet"}); err == nil {
		t.Fatal("empty registry accepted")
	}
}

// TestServesBatchAndMetrics verifies the daemon wires up the full route
// set, not just single scoring.
func TestServesBatchAndMetrics(t *testing.T) {
	modelPath, job := trainModelWithJob(t)

	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	defer func() { testOnListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-model", modelPath, "-addr", "127.0.0.1:0", "-quiet"})
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	client := serve.NewClient("http://" + addr.String())

	batch, err := client.ScoreBatch(context.Background(), &serve.BatchScoreRequest{Items: []serve.ScoreRequest{
		{Job: job}, {},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Succeeded != 1 || batch.Failed != 1 {
		t.Fatalf("batch outcome %+v", batch)
	}
	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `tasq_http_requests_total{code="2xx",route="/v1/score/batch"} 1`) {
		t.Fatalf("batch request not counted:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after context cancel")
	}
}

// bootDaemon starts tasqd with the given extra flags over a trained model
// file and returns a client plus a shutdown func that asserts a clean exit.
func bootDaemon(t *testing.T, job *scopesim.Job, extra ...string) (*serve.Client, *scopesim.Job, func()) {
	t.Helper()
	modelPath, j := trainModelWithJob(t)
	if job != nil {
		j = job
	}
	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	args := append([]string{"-model", modelPath, "-addr", "127.0.0.1:0", "-quiet"}, extra...)
	go func() { done <- run(ctx, args) }()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	testOnListen = nil
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v, want nil", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("daemon did not exit after context cancel")
		}
	}
	return serve.NewClient("http://" + addr.String()), j, stop
}

// TestFaultProfileFlag boots tasqd with a rate-1 synthetic-error profile:
// every scoring request must fail with the injected 500 while probes and
// metrics stay healthy — and a malformed profile is rejected at startup.
func TestFaultProfileFlag(t *testing.T) {
	modelPath := trainModel(t)
	if err := run(context.Background(), []string{
		"-model", modelPath, "-addr", "127.0.0.1:0", "-quiet",
		"-fault-profile", "error=2.0",
	}); err == nil {
		t.Fatal("out-of-range fault profile accepted")
	}

	client, job, stop := bootDaemon(t, nil, "-fault-profile", "seed=3,error=1.0")
	defer stop()

	for i := 0; i < 3; i++ {
		_, err := client.Score(context.Background(), &serve.ScoreRequest{Job: job})
		se, ok := err.(*serve.StatusError)
		if !ok || se.Code != http.StatusInternalServerError {
			t.Fatalf("score %d under rate-1 error profile: %v, want injected 500", i, err)
		}
		if !strings.Contains(se.Message, "injected") {
			t.Fatalf("score %d error does not identify the injection: %s", i, se.Message)
		}
	}
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("health under fault profile: %v", err)
	}
	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `tasq_score_jobs_total{outcome="failed"} 3`) {
		t.Fatalf("injected failures not counted:\n%s", metrics)
	}
}

// TestAdmissionFlags boots tasqd with a single scoring slot, no queue and
// rate-1 injected latency, then fires concurrent scores: the slot holder
// succeeds (slowly) and the overflow is shed with 429 + Retry-After.
func TestAdmissionFlags(t *testing.T) {
	client, job, stop := bootDaemon(t, nil,
		"-max-inflight", "1", "-max-queue", "0",
		"-fault-profile", "seed=5,latency=1.0:300ms",
	)
	defer stop()

	const n = 4
	type outcome struct {
		err error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := client.Score(context.Background(), &serve.ScoreRequest{Job: job})
			results <- outcome{err: err}
		}()
	}
	oks, sheds := 0, 0
	for i := 0; i < n; i++ {
		res := <-results
		switch se, ok := res.err.(*serve.StatusError); {
		case res.err == nil:
			oks++
		case ok && se.Code == http.StatusTooManyRequests:
			sheds++
			if se.RetryAfter <= 0 {
				t.Fatalf("429 shed without Retry-After: %v", se)
			}
		default:
			t.Fatalf("unexpected outcome under saturation: %v", res.err)
		}
	}
	if oks == 0 || sheds == 0 {
		t.Fatalf("saturation split %d ok / %d shed, want both nonzero", oks, sheds)
	}
}

// TestPolicyFlagAndModelsEndpoint boots tasqd with a -policy override and
// checks the whole routing surface end to end: policy-routed scores, a
// per-request model override, the /v1/models listing, and a startup
// rejection for a policy that names an unknown or unserved predictor.
func TestPolicyFlagAndModelsEndpoint(t *testing.T) {
	modelPath, job := trainModelWithJob(t)

	// A policy with a typo'd predictor name, or one naming a §6.3
	// simulator that is not served, must fail before listening.
	for _, bogus := range []string{"resnet", "Jockey", "NN,amdahl"} {
		err := run(context.Background(), []string{
			"-model", modelPath, "-addr", "127.0.0.1:0", "-policy", bogus, "-quiet",
		})
		if !errors.Is(err, model.ErrUnknownModel) {
			t.Fatalf("-policy %s: %v, want %v", bogus, err, model.ErrUnknownModel)
		}
	}

	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	defer func() { testOnListen = nil }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-model", modelPath, "-addr", "127.0.0.1:0",
			"-policy", "XGBoost-SS,NN", "-drain", "5s", "-quiet",
		})
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	client := serve.NewClient("http://" + addr.String())

	// Unnamed requests follow the -policy chain, not the built-in order.
	resp, err := client.Score(context.Background(), &serve.ScoreRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != model.NameXGBSS {
		t.Fatalf("policy-routed score served by %s, want %s", resp.Model, model.NameXGBSS)
	}
	// A request naming a model overrides the policy.
	resp, err = client.Score(context.Background(), &serve.ScoreRequest{Job: job, Model: "xgboost-pl"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != model.NameXGBPL {
		t.Fatalf("named score served by %s, want %s", resp.Model, model.NameXGBPL)
	}
	// The daemon lists its predictor set.
	models, err := client.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 5 {
		t.Fatalf("models listing %+v, want 5 predictors", models.Models)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestAutopilotFlagRequiresRegistry pins the startup contract: the
// learning loop cannot run without a registry to retrain into.
func TestAutopilotFlagRequiresRegistry(t *testing.T) {
	modelPath := trainModel(t)
	err := run(context.Background(), []string{
		"-model", modelPath, "-autopilot", "-addr", "127.0.0.1:0", "-quiet",
	})
	if err == nil || !strings.Contains(err.Error(), "-registry") {
		t.Fatalf("-autopilot without -registry: %v, want a registry error", err)
	}
}

// TestAutopilotModeWiring boots tasqd with -autopilot over a registry and
// proves the loop is live: POST /v1/telemetry is accepted, the observed
// runs reach the drift detector (visible on /metrics), the window store
// persists them under <registry>/telemetry/, and the active version gets
// auto-pinned (the pin-before-candidate invariant).
func TestAutopilotModeWiring(t *testing.T) {
	g := workload.New(workload.TestConfig(19))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(40), &ex); err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig(19)
	cfg.XGB.NumTrees = 10
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "models")
	reg, err := registry.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PublishPipeline(p, registry.Manifest{Notes: "v1"}); err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	defer func() { testOnListen = nil }()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-registry", store,
			"-autopilot",
			"-drift-threshold", "0.4",
			"-promote-min-n", "8",
			"-guardrail-window", "16",
			"-poll", "1h",
			"-addr", "127.0.0.1:0",
			"-quiet",
		})
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	client := serve.NewClient("http://" + addr.String())

	out, err := client.Telemetry(context.Background(), &serve.TelemetryRequest{Records: repo.All()[:10]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 10 || out.Rejected != 0 {
		t.Fatalf("telemetry outcome %+v, want 10 accepted", out)
	}
	// The ingest queue drains asynchronously: wait for the drift detector
	// to fold all 10 samples.
	folded := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		m, err := client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(m, "tasq_drift_samples_total 10") {
			folded = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !folded {
		t.Fatal("telemetry never reached the drift detector")
	}
	// The loop pinned the generation it serves, and the window persisted.
	if pinned, err := reg.Pinned(); err != nil || pinned != 1 {
		t.Fatalf("pinned v%d (%v), want v1 auto-pinned", pinned, err)
	}
	winReg, err := registry.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if vs, err := winReg.Versions(); err != nil || len(vs) != 1 {
		t.Fatalf("telemetry dir leaked into registry versions: %v (%v)", vs, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after context cancel")
	}
	// The window store survived the daemon: a fresh open sees the records.
	win, err := autopilot.OpenWindow(filepath.Join(store, "telemetry", "window.jsonl"), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	if win.Len() != 10 {
		t.Fatalf("persisted window holds %d records, want 10", win.Len())
	}
}

// TestServesPlan boots tasqd over a trained model and plans a small batch
// through POST /v1/plan.
func TestServesPlan(t *testing.T) {
	client, job, stop := bootDaemon(t, nil)
	defer stop()

	resp, err := client.Plan(context.Background(), &serve.PlanRequest{
		Jobs:           []*scopesim.Job{job, job},
		CapacityTokens: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 2 || resp.Policy != "Optimal Allocation" {
		t.Fatalf("plan response %+v", resp)
	}
	for i, pj := range resp.Jobs {
		if pj.Tokens < 1 || pj.Tokens > 200 || pj.PredictedRuntimeSeconds < 1 {
			t.Fatalf("planned job %d: %+v", i, pj)
		}
	}
}
