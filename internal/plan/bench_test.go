package plan

import (
	"testing"

	"tasq/internal/pcc"
)

// benchSpecs builds a deterministic 1,000-job batch with staggered
// arrivals and varied curves — the planner's acceptance-criteria shape.
func benchSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		a := -0.2 - 0.6*float64(i%7)/7 // slopes in [−0.2, −0.8)
		specs[i] = JobSpec{
			ID:              "bench",
			ArrivalSecond:   float64(i / 4),
			RequestedTokens: 40 + i%120,
			PeakTokens:      20 + i%90,
			Curve:           pcc.Curve{A: a, B: 400 + float64(i%300)},
		}
	}
	return specs
}

// BenchmarkPlanBuild1000 measures one full plan — policy allocation +
// FCFS simulation + summary — over a 1,000-job batch. jobs/op feeds
// scripts/bench.sh's jobs_per_plan column.
func BenchmarkPlanBuild1000(b *testing.B) {
	benchBuild(b, benchSpecs(1000), Config{Capacity: 400, Policy: PolicyOptimal})
}

// backfillBench is the packing benchmarks' batch: deadlines on every 8th
// job and two tenant quotas keep both of Build's guard paths hot.
func backfillBench() ([]JobSpec, Config) {
	specs := benchSpecs(1000)
	for i := range specs {
		specs[i].Tenant = []string{"acme", "globex"}[i%2]
		if i%8 == 0 {
			specs[i].DeadlineSecond = int(specs[i].ArrivalSecond) + 2000
		}
	}
	return specs, Config{
		Capacity: 400,
		Policy:   PolicyOptimal,
		Strategy: StrategyBackfill,
		Quota:    Quota{"acme": 300, "globex": 300},
	}
}

// retryBench is the retry benchmarks' batch: seeded demand draws decide
// which first slices overrun.
func retryBench() ([]JobSpec, Config) {
	return benchSpecs(1000), Config{Capacity: 400, Policy: PolicyOptimal, Strategy: StrategyRetry, RetrySeed: 42}
}

// benchBuild times one full plan: policy allocation, simulation (for
// backfill, the FCFS reference the no-regression guard requires as well)
// and summary.
func benchBuild(b *testing.B, specs []JobSpec, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(specs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// benchSimulate isolates one pass of the event loop from the policy layer:
// the batch is allocated once, outside the timer.
func benchSimulate(b *testing.B, specs []JobSpec, cfg Config, sim func(int, Quota, []Allocation) ([]Outcome, error)) {
	allocs, err := Allocate(specs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim(cfg.Capacity, cfg.Quota, allocs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// BenchmarkPlanBackfill1000 measures the deadline-aware bin-packing
// strategy end to end, including the FCFS reference simulation.
func BenchmarkPlanBackfill1000(b *testing.B) {
	specs, cfg := backfillBench()
	benchBuild(b, specs, cfg)
}

// BenchmarkPlanRetry1000 measures the first-allocation retry strategy:
// seeded demand draws, two-attempt scheduling and waste accounting.
func BenchmarkPlanRetry1000(b *testing.B) {
	specs, cfg := retryBench()
	benchBuild(b, specs, cfg)
}

// BenchmarkPlanSimulateFCFS1000 isolates the FCFS discipline from the
// policy layer.
func BenchmarkPlanSimulateFCFS1000(b *testing.B) {
	benchSimulate(b, benchSpecs(1000), Config{Capacity: 400, Policy: PolicyOptimal}, SimulateFCFSQuota)
}

// BenchmarkPlanSimulateBackfill1000 is the packing discipline alone, over
// BenchmarkPlanBackfill1000's batch: no Allocate, no FCFS reference.
func BenchmarkPlanSimulateBackfill1000(b *testing.B) {
	specs, cfg := backfillBench()
	benchSimulate(b, specs, cfg, SimulateBackfill)
}

// BenchmarkPlanSimulateRetry1000 is the retry discipline alone, over
// BenchmarkPlanRetry1000's batch and its retry legs.
func BenchmarkPlanSimulateRetry1000(b *testing.B) {
	specs, cfg := retryBench()
	benchSimulate(b, specs, cfg, SimulateRetry)
}
