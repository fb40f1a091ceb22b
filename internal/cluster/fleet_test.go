package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tasq/internal/jobrepo"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// trainPipeline builds the small fast pipeline the chaos fixtures use:
// 30 synthetic jobs, an 8-tree XGB, heavyweight predictors skipped.
func trainPipeline(t testing.TB, seed int64) (*trainer.Pipeline, []*jobrepo.Record) {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(30), &ex); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	cfg := trainer.DefaultConfig(seed)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return p, repo.All()
}

// fleetFixture publishes one generation into a fresh registry dir and
// boots a fleet of n over it.
func fleetFixture(t *testing.T, n int) (*Fleet, *registry.Registry, []*jobrepo.Record) {
	t.Helper()
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	p1, recs := trainPipeline(t, 51)
	if _, err := reg.PublishPipeline(p1, registry.Manifest{Notes: "fleet v1"}); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	f, err := NewFleet(dir, n, t.Logf)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f, reg, recs
}

func scoreOn(t *testing.T, r *Replica, job *scopesim.Job) (*serve.ScoreResponse, error) {
	t.Helper()
	return serve.NewClient(r.URL()).Score(context.Background(), &serve.ScoreRequest{Job: job})
}

func TestFleetBootAndScore(t *testing.T) {
	f, _, recs := fleetFixture(t, 3)
	urls := map[string]bool{}
	for _, r := range f.Replicas() {
		if !r.Alive() {
			t.Fatalf("replica %s not alive after boot", r.ID())
		}
		if got := r.ActiveVersion(); got != 1 {
			t.Fatalf("replica %s active v%d, want v1", r.ID(), got)
		}
		if r.Incarnation() != 1 {
			t.Fatalf("replica %s incarnation %d, want 1", r.ID(), r.Incarnation())
		}
		if urls[r.URL()] {
			t.Fatalf("duplicate replica URL %s", r.URL())
		}
		urls[r.URL()] = true
		resp, err := scoreOn(t, r, recs[0].Job)
		if err != nil {
			t.Fatalf("score on %s: %v", r.ID(), err)
		}
		if resp.ModelVersion != 1 {
			t.Fatalf("score on %s served v%d, want v1", r.ID(), resp.ModelVersion)
		}
	}
	if f.ByID("r1") != f.Replica(1) {
		t.Fatal("ByID(r1) != Replica(1)")
	}
	if f.ByID("nope") != nil {
		t.Fatal("ByID(nope) should be nil")
	}
}

func TestFleetPartitionGate(t *testing.T) {
	f, _, recs := fleetFixture(t, 2)
	r := f.Replica(0)

	if err := r.Partition(true); err != nil {
		t.Fatalf("partition: %v", err)
	}
	if !r.Partitioned() {
		t.Fatal("replica should report partitioned")
	}
	_, err := scoreOn(t, r, recs[0].Job)
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != 503 || !strings.Contains(se.Message, partitionedBody) {
		t.Fatalf("partitioned score: want 503 %q, got %v", partitionedBody, err)
	}
	if got := r.PartitionRefusals()["/v1/score"]; got < 1 {
		t.Fatalf("partition refusals for /v1/score = %d, want >= 1", got)
	}
	// The refusal also reaches a Connection: close client still writing
	// its body; closing on unread bytes would reset the connection.
	conn, err := net.Dial("tcp", strings.TrimPrefix(r.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	half := strings.Repeat(" ", 64<<10)
	fmt.Fprintf(conn, "POST /v1/score/batch HTTP/1.1\r\nHost: r0\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s",
		2*len(half), half)
	time.Sleep(50 * time.Millisecond)
	if _, err := io.WriteString(conn, half); err != nil {
		t.Fatalf("writing the rest of the body: %v", err)
	}
	if reply, err := io.ReadAll(conn); err != nil || !strings.HasPrefix(string(reply), "HTTP/1.1 503") {
		t.Fatalf("partitioned batch: reply %.40q, err %v, want a 503", reply, err)
	}
	// The refusal happened outside the instrumented mux: the server's own
	// HTTP counters must not have seen those requests.
	now, err := r.MetricsNow()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for k, v := range now {
		if strings.HasPrefix(k, "tasq_http_requests_total") && v != 0 {
			t.Fatalf("partitioned replica counted HTTP traffic: %s = %v", k, v)
		}
	}

	if err := r.Partition(false); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if _, err := scoreOn(t, r, recs[0].Job); err != nil {
		t.Fatalf("score after heal: %v", err)
	}
}

func TestFleetKillRestartMetrics(t *testing.T) {
	f, _, recs := fleetFixture(t, 2)
	r := f.Replica(0)

	const preKill = 3
	for i := 0; i < preKill; i++ {
		if _, err := scoreOn(t, r, recs[i].Job); err != nil {
			t.Fatalf("score %d: %v", i, err)
		}
	}
	if err := r.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if r.Alive() || r.URL() != "" || r.Server() != nil || r.ActiveVersion() != 0 {
		t.Fatal("killed replica still reports a live incarnation")
	}
	if err := r.Kill(); err == nil {
		t.Fatal("double kill should error")
	}
	if err := r.Sync(); err == nil {
		t.Fatal("sync on dead replica should error")
	}
	if err := r.Partition(true); err == nil {
		t.Fatal("partition on dead replica should error")
	}
	if _, err := r.MetricsNow(); err == nil {
		t.Fatal("MetricsNow on dead replica should error")
	}

	// The dead incarnation's counters survive in the accumulator.
	total, err := r.MetricsTotal()
	if err != nil {
		t.Fatalf("metrics total: %v", err)
	}
	okKey := `tasq_score_jobs_total{outcome="ok"}`
	if got := total[okKey]; got != preKill {
		t.Fatalf("accumulated %s = %v, want %d", okKey, got, preKill)
	}
	for k := range total {
		if strings.HasPrefix(k, "tasq_model_version") {
			t.Fatalf("gauge %s leaked into cumulative totals", k)
		}
	}

	if err := r.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := r.Restart(); err == nil {
		t.Fatal("double restart should error")
	}
	if r.Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", r.Incarnation())
	}
	if got := r.ActiveVersion(); got != 1 {
		t.Fatalf("restarted replica active v%d, want v1", got)
	}
	const postRestart = 2
	for i := 0; i < postRestart; i++ {
		if _, err := scoreOn(t, r, recs[i].Job); err != nil {
			t.Fatalf("post-restart score %d: %v", i, err)
		}
	}
	// Cross-incarnation sum: dead incarnation + live one.
	total, err = r.MetricsTotal()
	if err != nil {
		t.Fatalf("metrics total: %v", err)
	}
	if got := total[okKey]; got != preKill+postRestart {
		t.Fatalf("cross-incarnation %s = %v, want %d", okKey, got, preKill+postRestart)
	}
	// The live exposition still carries gauges.
	now, err := r.MetricsNow()
	if err != nil {
		t.Fatalf("metrics now: %v", err)
	}
	if got := now[`tasq_model_version{role="active"}`]; got != 1 {
		t.Fatalf("active version gauge = %v, want 1", got)
	}
}

func TestFleetBadSize(t *testing.T) {
	if _, err := NewFleet(t.TempDir(), 0, nil); err == nil {
		t.Fatal("fleet of 0 should error")
	}
}
