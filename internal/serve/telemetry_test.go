package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/obs"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// captureSink records ingested telemetry; optionally refusing after a cap
// to exercise the backpressure contract.
type captureSink struct {
	mu   sync.Mutex
	recs []*jobrepo.Record
	cap  int // 0 = unbounded
}

func (s *captureSink) IngestTelemetry(recs []*jobrepo.Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range recs {
		if s.cap > 0 && len(s.recs) >= s.cap {
			return i, ErrTelemetryBackpressure
		}
		s.recs = append(s.recs, rec)
	}
	return len(recs), nil
}

func (s *captureSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// telemetryRecords executes seeded jobs into valid observed-run records.
func telemetryRecords(t *testing.T, seed int64, n int) []*jobrepo.Record {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(n), &ex); err != nil {
		t.Fatal(err)
	}
	return repo.All()
}

func telemetryServer(t *testing.T, sink TelemetrySink) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := NewUnloadedServer(WithTelemetry(sink))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestTelemetryEndToEnd(t *testing.T) {
	sink := &captureSink{}
	ts, srv := telemetryServer(t, sink)
	recs := telemetryRecords(t, 41, 5)

	out, err := NewClient(ts.URL).Telemetry(context.Background(), &TelemetryRequest{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 5 || out.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d", out.Accepted, out.Rejected)
	}
	if sink.len() != 5 {
		t.Fatalf("sink holds %d records", sink.len())
	}
	text, err := NewClient(ts.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, obs.MetricTelemetryRecords+`{outcome="accepted"} 5`) {
		t.Fatalf("accepted counter missing from metrics:\n%s", text)
	}
	_ = srv
}

func TestTelemetryRejectsInvalidRecords(t *testing.T) {
	sink := &captureSink{}
	ts, _ := telemetryServer(t, sink)
	recs := telemetryRecords(t, 43, 3)
	// One valid, one structurally broken, one nil.
	bad := &jobrepo.Record{Job: recs[1].Job, ObservedTokens: 0}
	out, err := NewClient(ts.URL).Telemetry(context.Background(), &TelemetryRequest{
		Records: []*jobrepo.Record{recs[0], bad, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || out.Rejected != 2 {
		t.Fatalf("accepted %d rejected %d, want 1/2", out.Accepted, out.Rejected)
	}
	if out.Error == "" {
		t.Fatal("no validation error surfaced")
	}
	if sink.len() != 1 {
		t.Fatalf("sink holds %d records, want only the valid one", sink.len())
	}
}

func TestTelemetryBackpressure(t *testing.T) {
	sink := &captureSink{cap: 2}
	ts, _ := telemetryServer(t, sink)
	recs := telemetryRecords(t, 47, 5)
	_, err := NewClient(ts.URL).Telemetry(context.Background(), &TelemetryRequest{Records: recs})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %T %v, want StatusError", err, err)
	}
	if se.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", se.Code)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("Retry-After %v, want a positive hint", se.RetryAfter)
	}
	if sink.len() != 2 {
		t.Fatalf("sink holds %d records, want the accepted prefix of 2", sink.len())
	}
}

func TestTelemetryWithoutSink(t *testing.T) {
	srv, err := NewUnloadedServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	recs := telemetryRecords(t, 53, 1)
	_, err = NewClient(ts.URL).Telemetry(context.Background(), &TelemetryRequest{Records: recs})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotImplemented {
		t.Fatalf("error %v, want 501 StatusError", err)
	}
}

func TestTelemetryRequestValidation(t *testing.T) {
	ts, _ := telemetryServer(t, &captureSink{})
	client := NewClient(ts.URL)
	for name, req := range map[string]*TelemetryRequest{
		"empty batch": {},
	} {
		_, err := client.Telemetry(context.Background(), req)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("%s: error %v, want 400", name, err)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/telemetry status %d", resp.StatusCode)
	}
}
