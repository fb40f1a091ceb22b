package scopesim

import (
	"math/rand"
	"testing"
)

// benchJob is the eight-stage DAG BenchmarkExecutorRun and the allocation
// pin run.
func benchJob() *Job { return randomDAGJob(rand.New(rand.NewSource(1)), 8) }

func BenchmarkExecutorRun(b *testing.B) {
	job := benchJob()
	var ex Executor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(job, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecutorRunAllocs pins BenchmarkExecutorRun's allocations: the
// per-stage bookkeeping, the pool and one skyline, and nothing per event.
// Boxing events through container/heap cost 69 here. The skyline is laid
// out at its exact length, so a stored execution holds no slack.
func TestExecutorRunAllocs(t *testing.T) {
	job := benchJob()
	var ex Executor
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ex.Run(job, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 43 {
		t.Fatalf("Executor.Run allocates %v times per run, want ≤ 43", allocs)
	}
	e, err := ex.Run(job, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cap(e.Skyline) != len(e.Skyline) {
		t.Fatalf("skyline of %d seconds has capacity %d", len(e.Skyline), cap(e.Skyline))
	}
}
