package obs

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits_total", "route", "/x").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "route", "/x").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("in_flight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	cum, sum, count := h.snapshot()
	if count != 5 || sum != 56.05 {
		t.Fatalf("snapshot sum=%v count=%d", sum, count)
	}
	// Cumulative: ≤0.1 →1, ≤1 →3, ≤10 →4, +Inf →5.
	want := []int64{1, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive per Prometheus semantics
	cum, _, _ := h.snapshot()
	if cum[0] != 1 {
		t.Fatalf("observation at bound fell in bucket %v", cum)
	}
}

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "route", "/v1/score", "code", "2xx").Add(3)
	r.SetHelp("req_total", "Requests served.")
	r.Gauge("in_flight", "route", "/v1/score").Set(2)
	r.Histogram("lat_seconds", []float64{0.5, 1}, "route", "/v1/score").Observe(0.7)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total Requests served.",
		"# TYPE req_total counter",
		`req_total{code="2xx",route="/v1/score"} 3`,
		"# TYPE in_flight gauge",
		`in_flight{route="/v1/score"} 2`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{route="/v1/score",le="0.5"} 0`,
		`lat_seconds_bucket{route="/v1/score",le="1"} 1`,
		`lat_seconds_bucket{route="/v1/score",le="+Inf"} 1`,
		`lat_seconds_sum{route="/v1/score"} 0.7`,
		`lat_seconds_count{route="/v1/score"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in rendered output:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "in_flight") > strings.Index(out, "req_total") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
}

// TestParseSamplesRoundTrip reads WriteTo's exposition back: every sample
// line keyed as rendered, comments and malformed lines skipped.
func TestParseSamplesRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "route", "/v1/score", "code", "2xx").Add(3)
	r.SetHelp("req_total", "Requests served.")
	r.Gauge("in_flight").Set(-2)
	r.Histogram("lat_seconds", []float64{0.5}, "route", "/v1/score").Observe(0.7)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	got := ParseSamples(b.String() + "no_value\nbad_value x\n")
	want := map[string]float64{
		`req_total{code="2xx",route="/v1/score"}`: 3,
		`in_flight`: -2,
		`lat_seconds_bucket{route="/v1/score",le="0.5"}`:  0,
		`lat_seconds_bucket{route="/v1/score",le="+Inf"}`: 1,
		`lat_seconds_sum{route="/v1/score"}`:              0.7,
		`lat_seconds_count{route="/v1/score"}`:            1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSamples = %v, want %v", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "k", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping: %s", b.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m")
}

func TestOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label count did not panic")
		}
	}()
	r.Counter("m", "only-a-key")
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	post, err := srv.Client().Post(srv.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST status %d", post.StatusCode)
	}
}

// TestSetHelpBeforeRegistration: every caller in the tree describes a
// family before the first Counter/Gauge/Histogram call creates it, so the
// text must not depend on which comes first; help for a family that never
// registers renders nothing.
func TestSetHelpBeforeRegistration(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("early_total", "Set before the family exists.")
	r.SetHelp("never_total", "No series ever registers this one.")
	r.Counter("early_total").Inc()
	r.Gauge("late").Set(1)
	r.SetHelp("late", "Set after the family exists.")

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP early_total Set before the family exists.\n# TYPE early_total counter\n",
		"# HELP late Set after the family exists.\n# TYPE late gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendered output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "never_total") {
		t.Fatalf("help rendered for a family with no series:\n%s", out)
	}
}

// TestSetHelpConcurrentWithWriteTo is for the race detector: a reload
// re-describes the shadow families (serve.setShadow) while /metrics is
// being scraped.
func TestSetHelpConcurrentWithWriteTo(t *testing.T) {
	r := NewRegistry()
	r.Counter("swaps_total").Inc()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.SetHelp("swaps_total", "Model swaps.")
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var b strings.Builder
				if _, err := r.WriteTo(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
