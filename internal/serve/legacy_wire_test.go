package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// The legacy_*.json fixtures in testdata/ are request bodies written at
// a commit whose operators still carried a "True" block of execution-time
// metrics beside "Est". Clients and files of that time keep sending them;
// the decoder must take them as it takes the same body without the
// blocks.

// legacyJobs regenerates the jobs the legacy fixtures were written from:
// three small jobs of workload.TestConfig(1)'s stream, one recurring and
// two ad hoc.
func legacyJobs() []*scopesim.Job {
	jobs := workload.New(workload.TestConfig(1)).Workload(27)
	return []*scopesim.Job{jobs[17], jobs[26], jobs[21]}
}

// legacyRecords are legacyJobs executed at their requested tokens.
func legacyRecords(t testing.TB) []*jobrepo.Record {
	t.Helper()
	repo := jobrepo.New()
	if err := repo.Ingest(legacyJobs(), &scopesim.Executor{}); err != nil {
		t.Fatal(err)
	}
	return repo.All()
}

// legacyBodies names each fixture, its route, the request it holds and
// the curve lookups serving it makes.
var legacyBodies = []struct {
	file, route string
	request     func(jobs []*scopesim.Job, recs []*jobrepo.Record) any
	lookups     int64
}{
	{"legacy_score.json", "/v1/score", func(jobs []*scopesim.Job, _ []*jobrepo.Record) any {
		return &ScoreRequest{Job: jobs[0]}
	}, 1},
	{"legacy_batch.json", "/v1/score/batch", func(jobs []*scopesim.Job, _ []*jobrepo.Record) any {
		return &BatchScoreRequest{Items: []ScoreRequest{{Job: jobs[0]}, {Job: jobs[1]}}}
	}, 2},
	{"legacy_plan.json", "/v1/plan", func(jobs []*scopesim.Job, _ []*jobrepo.Record) any {
		return &PlanRequest{Jobs: jobs, CapacityTokens: 400}
	}, 3},
	{"legacy_telemetry.json", "/v1/telemetry", func(_ []*scopesim.Job, recs []*jobrepo.Record) any {
		return &TelemetryRequest{Records: recs[:2]}
	}, 0},
}

// trueBlock matches one operator's legacy "True" metrics object.
var trueBlock = regexp.MustCompile(`,"True":\{[^{}]*\}`)

func readLegacy(t testing.TB, file string) []byte {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"True":{`)) {
		t.Fatalf("%s holds no True block: not a legacy body", file)
	}
	return body
}

// take returns and forgets the records the sink holds.
func (s *captureSink) take() []*jobrepo.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recs
	s.recs = nil
	return recs
}

// TestLegacyBodiesDecode sends each legacy fixture and its twin, the same
// bytes with every True block cut out, to one fresh server. The fixture
// must decode to exactly the request it was written from, both must get
// the same answer, and the twin must find every curve the fixture left
// in the cache: True never reached the key.
func TestLegacyBodiesDecode(t *testing.T) {
	jobs, recs := legacyJobs(), legacyRecords(t)
	for _, lb := range legacyBodies {
		t.Run(lb.file, func(t *testing.T) {
			legacy := readLegacy(t, lb.file)
			twin := trueBlock.ReplaceAll(legacy, nil)
			if bytes.Contains(twin, []byte(`"True"`)) {
				t.Fatalf("%s: a True block survived the cut", lb.file)
			}

			want := lb.request(jobs, recs)
			got := reflect.New(reflect.TypeOf(want).Elem()).Interface()
			if err := json.Unmarshal(legacy, got); err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("%s decodes to\n%s\nwant the generated request\n%s", lb.file, g, w)
			}

			sink := &captureSink{}
			srv, err := NewServer(fuzzPipeline(), WithTelemetry(sink), withWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			first := postOK(t, h, lb.route, legacy)
			fromLegacy := sink.take()
			hits, misses, _, _ := cacheCounters(srv)
			second := postOK(t, h, lb.route, twin)
			fromTwin := sink.take()
			if !bytes.Equal(first, second) {
				t.Fatalf("legacy body answered\n%s\nits twin\n%s", first, second)
			}
			hits2, misses2, _, _ := cacheCounters(srv)
			if misses != lb.lookups || misses2 != misses || hits2-hits != lb.lookups {
				t.Fatalf("misses %d then %d, hits +%d; want %d misses, then %d hits and no miss",
					misses, misses2, hits2-hits, lb.lookups, lb.lookups)
			}

			if len(fromLegacy) != len(fromTwin) {
				t.Fatalf("sink got %d legacy records, %d twin records", len(fromLegacy), len(fromTwin))
			}
			for i := range fromLegacy {
				a, b := fromLegacy[i], fromTwin[i]
				if !bytes.Equal(RouteKey("", a.Job), RouteKey("", b.Job)) || a.ObservedTokens != b.ObservedTokens ||
					a.RuntimeSeconds != b.RuntimeSeconds || !reflect.DeepEqual(a.Skyline, b.Skyline) {
					t.Fatalf("telemetry record %d differs between the legacy body and its twin", i)
				}
			}
		})
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postOK sends body to route through h and returns the 200 answer.
func postOK(t *testing.T, h http.Handler, route string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", route, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}
