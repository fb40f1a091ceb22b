// Package obs provides the observability primitives of the TASQ serving
// stack: a zero-dependency metrics registry (counters, gauges and
// histograms with fixed latency buckets) rendered in the Prometheus text
// exposition format, HTTP middleware that records per-route traffic, and a
// structured JSON request logger with request IDs. The paper's Figure 4
// deploys the PCC model as an always-on scoring service; at that scale the
// serving path must be measurable, so every endpoint is instrumented.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default request-latency histogram bucket upper bounds
// in seconds, following the Prometheus convention.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RelDeltaBuckets are bucket bounds for relative-difference histograms
// (dimensionless fractions), e.g. the shadow-scoring divergence between
// two model versions: sub-0.1% agreement up to 2.5x disagreement.
var RelDeltaBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// metricKind discriminates the families a Registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas are ignored (counters only go
// up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets. Safe
// for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []int64   // len(bounds)+1; last is the +Inf bucket
	sum     float64
	count   int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot copies the cumulative bucket counts, sum and count.
func (h *Histogram) snapshot() (cum []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]int64, len(h.buckets))
	var running int64
	for i, c := range h.buckets {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// family is one named metric with a fixed kind and a series per label set.
type family struct {
	name    string
	kind    metricKind
	bounds  []float64 // histograms only
	mu      sync.Mutex
	series  map[string]any // label signature → *Counter | *Gauge | *Histogram
	ordered []string       // label signatures in first-seen order
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
	// help is kept by family name, not on the family, so that it may be set
	// before the first series registers the family, and under mu alone.
	help map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), help: make(map[string]string)}
}

// lookup finds or creates a family, enforcing one kind per name.
func (r *Registry) lookup(name string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]any)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// labelKey builds the deterministic label signature `k="v",…` used both as
// the series key and the rendered label block. Labels are name/value pairs.
func labelKey(labels []string) string {
	if len(labels)%2 != 0 {
		panic("obs: labels must be name/value pairs")
	}
	n := len(labels) / 2
	type kv struct{ k, v string }
	kvs := make([]kv, 0, n)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q covers the exposition format's escapes: backslash, quote
		// and newline.
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

func (f *family) get(labels []string, make func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = make()
		f.series[key] = m
		f.ordered = append(f.ordered, key)
	}
	return m
}

// Counter returns the counter with the given name and label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	f := r.lookup(name, kindCounter, nil)
	return f.get(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge with the given name and label pairs, creating it
// on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	f := r.lookup(name, kindGauge, nil)
	return f.get(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram with the given name, buckets and label
// pairs, creating it on first use. A nil bucket slice uses DefBuckets; the
// bucket layout of the first registration wins for the whole family.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	f := r.lookup(name, kindHistogram, bounds)
	return f.get(labels, func() any {
		return &Histogram{bounds: f.bounds, buckets: make([]int64, len(f.bounds)+1)}
	}).(*Histogram)
}

// SetHelp attaches a HELP string rendered above the family, whether the
// family is registered yet or not.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// WriteTo renders every family in the Prometheus text exposition format,
// families sorted by name, series in first-registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	helps := make([]string, len(names))
	for i, n := range names {
		fams[i], helps[i] = r.families[n], r.help[n]
	}
	r.mu.Unlock()

	var total int64
	for i, f := range fams {
		n, err := f.write(w, helps[i])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (f *family) write(w io.Writer, help string) (int64, error) {
	f.mu.Lock()
	keys := append([]string(nil), f.ordered...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()

	var b strings.Builder
	if help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, help)
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	for i, key := range keys {
		switch m := series[i].(type) {
		case *Counter:
			writeSample(&b, f.name, "", key, "", float64(m.Value()))
		case *Gauge:
			writeSample(&b, f.name, "", key, "", float64(m.Value()))
		case *Histogram:
			cum, sum, count := m.snapshot()
			for j, bound := range f.bounds {
				writeSample(&b, f.name, "_bucket", key, formatLe(bound), float64(cum[j]))
			}
			writeSample(&b, f.name, "_bucket", key, "+Inf", float64(cum[len(cum)-1]))
			writeSample(&b, f.name, "_sum", key, "", sum)
			writeSample(&b, f.name, "_count", key, "", float64(count))
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeSample renders one exposition line, merging the optional le label
// into the series label block.
func writeSample(b *strings.Builder, name, suffix, key, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if key != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(key)
		if le != "" {
			if key != "" {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "le=%q", le)
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %s\n", formatValue(v))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func formatLe(bound float64) string { return fmt.Sprintf("%g", bound) }

// Handler serves the registry at GET /metrics in the text exposition
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
