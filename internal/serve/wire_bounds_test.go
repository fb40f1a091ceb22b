package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wireBoundCases are fuzzJob with one field pushed past what the held job
// stores: every integer of an operator or stage is 32-bit and a kind or a
// partitioning narrower still. A value over its type's range is refused at
// decode, naming the field's type; a value in range that names no real
// kind or partitioning decodes and reaches Job.Validate's message.
var wireBoundCases = []struct {
	name     string
	from, to string // the edit to fuzzJob
	decodes  bool   // in range for the field's type
	want     string // in the answer body
}{
	{"operator ID", `"Operators":[{`, `"Operators":[{"ID":2147483648,`, false, "of type int32"},
	{"child", `"Operators":[{`, `"Operators":[{"Children":[2147483648],`, false, "of type int32"},
	{"stage tasks", `"Tasks":4`, `"Tasks":2147483648`, false, "of type int32"},
	{"num partitions", `"NumPartitions":4`, `"NumPartitions":2147483648`, false, "of type int32"},
	{"kind over int16", `"Kind":0`, `"Kind":32768`, false, "of type scopesim.OpKind"},
	{"partitioning over 127", `"Kind":0`, `"Kind":0,"Partitioning":128`, false, "of type scopesim.PartitionMethod"},
	{"kind over 127", `"Kind":0`, `"Kind":200`, true, "invalid kind 200"},
	{"negative kind", `"Kind":0`, `"Kind":-1`, true, "invalid kind -1"},
	{"negative partitioning", `"Kind":0`, `"Kind":0,"Partitioning":-1`, true, "invalid partitioning -1"},
}

// wireBoundRoutes wrap one job (J) in each route's body. Telemetry takes a
// record that decodes but fails validation as a rejected record of a 200.
var wireBoundRoutes = []struct {
	route, body string
	invalid     int // the status of a job that decodes but fails Validate
}{
	{"/v1/score", `{"job":J}`, http.StatusBadRequest},
	{"/v1/plan", `{"jobs":[J],"capacity_tokens":400}`, http.StatusBadRequest},
	{"/v1/telemetry", `{"records":[{"job":J,"observed_tokens":4,"runtime_seconds":3,"skyline":[4,4,2]}]}`, http.StatusOK},
}

// TestWireBounds holds every JSON route to the held job's integer widths:
// an out-of-range field is a 400 naming its type, never a 500 or a
// truncated value, and an in-range but invalid kind or partitioning keeps
// Job.Validate's message.
func TestWireBounds(t *testing.T) {
	srv, err := NewServer(fuzzPipeline(), WithTelemetry(acceptSink{}), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(t *testing.T, route, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		return rec
	}
	for _, r := range wireBoundRoutes {
		if rec := post(t, r.route, strings.ReplaceAll(r.body, "J", fuzzJob)); rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "rejected\":1") {
			t.Fatalf("POST %s with the unedited job: %d %s", r.route, rec.Code, rec.Body.Bytes())
		}
	}
	for _, r := range wireBoundRoutes {
		for _, c := range wireBoundCases {
			job := strings.Replace(fuzzJob, c.from, c.to, 1)
			if job == fuzzJob {
				t.Fatalf("%s: %q is not in fuzzJob", c.name, c.from)
			}
			code := http.StatusBadRequest
			if c.decodes {
				code = r.invalid
			}
			t.Run(r.route+"/"+c.name, func(t *testing.T) {
				rec := post(t, r.route, strings.ReplaceAll(r.body, "J", job))
				if rec.Code != code || !strings.Contains(rec.Body.String(), c.want) {
					t.Fatalf("status %d body %q, want %d with %q", rec.Code, rec.Body.Bytes(), code, c.want)
				}
			})
		}
	}
	t.Run("/v1/telemetry/skyline second", func(t *testing.T) {
		body := strings.ReplaceAll(`{"records":[{"job":J,"observed_tokens":4,"runtime_seconds":3,"skyline":[4,2147483648,2]}]}`, "J", fuzzJob)
		rec := post(t, "/v1/telemetry", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "of type int32") {
			t.Fatalf("status %d body %q, want 400 with %q", rec.Code, rec.Body.Bytes(), "of type int32")
		}
	})
}
