package workload

import (
	"runtime"
	"testing"
)

const benchJobs = 512

// BenchmarkGenerate synthesises the offline pipeline's population: 512
// TestConfig(1) jobs from a fresh generator, templates included. B/job is
// the heap it allocates per job.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if jobs := New(TestConfig(1)).Workload(benchJobs); len(jobs) != benchJobs {
			b.Fatalf("got %d jobs", len(jobs))
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*benchJobs), "B/job")
}

// TestGenerateAllocsGate pins the allocations per generated job: the job,
// its ID, one exact-size array each for operators, stages and their int
// lists, and an ad-hoc job's cluster name. Growing each slice by append
// cost 95 per job.
func TestGenerateAllocsGate(t *testing.T) {
	g := New(TestConfig(1))
	perJob := testing.AllocsPerRun(5, func() { g.Workload(benchJobs) }) / benchJobs
	if perJob > 12 {
		t.Fatalf("generation allocates %.2f times per job, want ≤ 12", perJob)
	}
}
