package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"tasq/internal/workload"
)

// What a job costs on the wire, over workload.TestConfig(1)'s stream: the
// total of the first 1,000 jobs' POST /v1/score bodies, and the most of
// its jobs one POST /v1/plan body holds under maxBodyBytes. A field added
// to scopesim.Job or Operator moves both.
const (
	wireScoreJobs  = 1000
	wireScoreBytes = 8_891_898
	wirePlanJobs   = 1879
)

func TestWireSize(t *testing.T) {
	jobs := workload.New(workload.TestConfig(1)).Workload(2500)
	total := 0
	for _, job := range jobs[:wireScoreJobs] {
		total += len(mustJSON(t, &ScoreRequest{Job: job}))
	}
	if total != wireScoreBytes {
		t.Errorf("%d score bodies take %d bytes (mean %.1f), want %d (mean %.1f)", wireScoreJobs,
			total, float64(total)/wireScoreJobs, wireScoreBytes, float64(wireScoreBytes)/wireScoreJobs)
	}

	// A plan body is its envelope plus each job's JSON, comma-separated.
	planBody := func(n int) []byte {
		return mustJSON(t, &PlanRequest{Jobs: jobs[:n], CapacityTokens: 20000})
	}
	size, n := len(planBody(0)), 0
	for ; n < len(jobs); n++ {
		grown := size + len(mustJSON(t, jobs[n]))
		if n > 0 {
			grown++
		}
		if grown > maxBodyBytes {
			break
		}
		size = grown
	}
	if n != wirePlanJobs {
		t.Errorf("a plan body holds %d jobs under the %d-byte bound, want %d", n, maxBodyBytes, wirePlanJobs)
	}
	// The handler's decoder agrees: n jobs decode, n+1 get 413.
	for _, tc := range []struct {
		jobs int
		ok   bool
	}{{n, true}, {n + 1, false}} {
		body := planBody(tc.jobs)
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		var req PlanRequest
		if ok := decodeBody(w, r, &req); ok != tc.ok || !ok && w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-job plan (%d bytes): decoded %v, status %d", tc.jobs, len(body), ok, w.Code)
		}
		if tc.ok && len(req.Jobs) != tc.jobs {
			t.Fatalf("%d-job plan decoded %d jobs", tc.jobs, len(req.Jobs))
		}
	}
}
