package main

// Spans recorded from outside the program, around the benchmark's own
// calls into each layer. They stay in memory until the run ends.
//
// The driver cannot put a span inside a handler, so a layer below a real
// call is timed by replaying it: the same input through the layer's public
// function, parented to the span it would sit inside. A replayed child
// does not run within its parent's interval, so self time is the parent's
// duration minus the durations of its direct children, not minus the part
// of its interval they cover.

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"
)

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Allocs is the runtime.MemStats.Mallocs delta across the call, -1
	// when it was not counted.
	Allocs int64 `json:"allocs"`

	mallocs0 uint64
}

// tracer collects the spans of a traced pass.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. With countAllocs the heap's
// malloc counter is read first, outside the timed interval.
func (t *tracer) begin(parent int, request int64, name string, countAllocs bool) int {
	s := span{Parent: parent, Request: request, Name: name, Allocs: -1}
	if countAllocs {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.mallocs0, s.Allocs = m.Mallocs, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.StartNs = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNs = end
	counted := s.Allocs == 0
	t.mu.Unlock()
	if counted {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		t.mu.Lock()
		t.spans[id-1].Allocs = int64(m.Mallocs - t.spans[id-1].mallocs0)
		t.mu.Unlock()
	}
}

// layer holds, per span name, every span's duration, self time and malloc
// count.
type layer struct{ durUs, selfUs, allocs []float64 }

func (t *tracer) layers() map[string]*layer {
	out := map[string]*layer{}
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		d := s.EndNs - s.StartNs
		l.durUs = append(l.durUs, float64(d)/1e3)
		l.selfUs = append(l.selfUs, float64(d-children[s.ID])/1e3)
		if s.Allocs >= 0 {
			l.allocs = append(l.allocs, float64(s.Allocs))
		}
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
