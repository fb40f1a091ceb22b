package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"tasq/internal/scopesim"
	"tasq/internal/skyline"
)

const benchJobs = 512

// BenchmarkGenerate synthesises the offline pipeline's population: 512
// TestConfig(1) jobs from a fresh generator, templates included. B/job is
// the heap it allocates per job, retained_B/job what a held job keeps
// (retainedPerJob).
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
	b.StopTimer()
	b.ReportMetric(retainedPerJob(benchJobs), "retained_B/job")
}

// retainedPerJob is the live heap that n generated TestConfig(1) jobs keep
// per job: the HeapAlloc delta across generating them, with a GC before
// and after so garbage on either side counts for nothing.
func retainedPerJob(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jobs := New(TestConfig(1)).Workload(n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(jobs)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestHeldJobFootprint gates what a held job costs. Every integer of an
// operator or stage is 32-bit and a skyline second is an int32, so a
// TestConfig(1) job keeps about 3,530 B (4,281 B with 8-byte ints). The
// size pins make a field added later show up here as a test diff.
func TestHeldJobFootprint(t *testing.T) {
	if got := unsafe.Sizeof(scopesim.Operator{}); got != 112 {
		t.Errorf("Operator is %d B, want 112", got)
	}
	if got := unsafe.Sizeof(scopesim.Stage{}); got != 64 {
		t.Errorf("Stage is %d B, want 64", got)
	}
	if got := unsafe.Sizeof(skyline.Skyline{0}[0]); got != 4 {
		t.Errorf("a skyline second is %d B, want 4", got)
	}
	if perJob := retainedPerJob(2000); perJob > 3600 {
		t.Errorf("a generated job retains %.0f B, want ≤ 3,600", perJob)
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
