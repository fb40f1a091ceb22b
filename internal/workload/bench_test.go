package workload

import "testing"

const benchJobs = 512

// BenchmarkGenerate synthesises the offline pipeline's population: 512
// TestConfig(1) jobs from a fresh generator, templates included.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if jobs := New(TestConfig(1)).Workload(benchJobs); len(jobs) != benchJobs {
			b.Fatalf("got %d jobs", len(jobs))
		}
	}
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
