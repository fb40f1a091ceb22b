package tasq_test

// Per-stage benchmarks for the parallel offline pipeline, each run at
// Workers=1 (the serial legacy path) and Workers=NumCPU so the speedup is
// visible in bench diffs. scripts/bench.sh runs these and distills
// BENCH_pipeline.json — the perf trajectory future PRs regress against.
// Output is byte-identical across worker counts (the determinism test in
// internal/experiments proves it), so these measure pure scheduling gain.

import (
	"fmt"
	"runtime"
	"testing"

	"tasq/internal/experiments"
	"tasq/internal/flight"
	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// benchWorkers are the two points of every stage benchmark: the serial
// path and the machine's full width (collapsed to one point on a
// single-CPU host, where the speedup is necessarily 1×).
var benchWorkers = func() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}()

func workersName(w int) string { return fmt.Sprintf("workers=%d", w) }

// benchRecords ingests a fixed workload once per benchmark.
func benchRecords(b *testing.B, n int) []*jobrepo.Record {
	b.Helper()
	g := workload.New(workload.TestConfig(11))
	repo := jobrepo.New()
	if err := repo.Ingest(g.Workload(n), &scopesim.Executor{}); err != nil {
		b.Fatal(err)
	}
	return repo.All()
}

func BenchmarkPipelineIngest(b *testing.B) {
	g := workload.New(workload.TestConfig(11))
	jobs := g.Workload(256)
	for _, w := range benchWorkers {
		b.Run(workersName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repo := jobrepo.New()
				if err := repo.IngestParallel(jobs, &scopesim.Executor{}, w); err != nil {
					b.Fatal(err)
				}
			}
			// Constant batch size; scripts/bench.sh derives jobs_per_sec
			// from this and ns/op in one place.
			b.ReportMetric(float64(len(jobs)), "jobs/op")
		})
	}
}

func BenchmarkPipelineTrain(b *testing.B) {
	recs := benchRecords(b, 128)
	for _, w := range benchWorkers {
		b.Run(workersName(w), func(b *testing.B) {
			cfg := trainer.DefaultConfig(11)
			cfg.XGB.NumTrees = 25
			cfg.NN.Epochs = 20
			cfg.GNN.Epochs = 2
			cfg.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trainer.Train(recs, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(recs)), "jobs/op")
		})
	}
}

func BenchmarkPipelineEvaluate(b *testing.B) {
	recs := benchRecords(b, 192)
	train, test := recs[:128], recs[128:]
	for _, w := range benchWorkers {
		b.Run(workersName(w), func(b *testing.B) {
			cfg := trainer.DefaultConfig(11)
			cfg.XGB.NumTrees = 25
			cfg.NN.Epochs = 20
			cfg.GNN.Epochs = 2
			cfg.Workers = w
			p, err := trainer.Train(train, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.EvaluateHistorical(test); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(test)), "jobs/op")
		})
	}
}

func BenchmarkPipelineFlight(b *testing.B) {
	recs := benchRecords(b, 64)
	for _, w := range benchWorkers {
		b.Run(workersName(w), func(b *testing.B) {
			cfg := flight.DefaultConfig(11)
			cfg.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := flight.Execute(recs, &scopesim.Executor{}, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(recs)), "jobs/op")
		})
	}
}

// BenchmarkPipelineSuite is the end-to-end number the acceptance criterion
// tracks: the full SmallConfig suite build (generation, ingest, training,
// selection, flighting) at Workers=1 vs Workers=NumCPU.
func BenchmarkPipelineSuite(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(workersName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.SmallConfig(7)
				cfg.Workers = w
				if _, err := experiments.NewSuite(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineRunAll times the experiment fan-out over a prebuilt
// suite, with the per-loss pipeline cache warmed so the timing reflects
// the harnesses themselves.
func BenchmarkPipelineRunAll(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(workersName(w), func(b *testing.B) {
			cfg := experiments.SmallConfig(7)
			cfg.Workers = w
			s, err := experiments.NewSuite(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, loss := range []trainer.LossKind{trainer.LF1, trainer.LF3} {
				if _, err := experiments.TableModels(s, loss); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range experiments.RunAll(s) {
					if e.Err != nil {
						b.Fatalf("%s: %v", e.ID, e.Err)
					}
				}
			}
		})
	}
}
