# Development targets for the TASQ reproduction.
#
#   make build     compile everything
#   make test      tier-1 verification (go build + go test)
#   make race      race-detector pass over the concurrent paths
#   make check     the one gate: fmt + vet + build + tests + race + soaks + bench
#                  smoke + examples + no stray processes (run before merging;
#                  scripts/check.sh and CI run it too)
#   make examples  run every program under examples/ to a zero exit
#   make coverage  coverage profile with the fail-below-baseline floor
#   make chaos     deterministic chaos/soak harness under the race detector
#   make autopilot-soak  continuous-learning loop under drift + faults (-race)
#   make cluster-soak    sharded-fleet chaos suite: kill/partition/restart (-race)
#   make plan-soak       cluster planner at scale: ~1M simulated jobs, savings + reproducibility
#   make bench     benchmarks -> BENCH_pipeline.json + BENCH_serving.json + BENCH_planner.json

GO ?= go

.PHONY: build test race vet fmt check coverage chaos autopilot-soak cluster-soak plan-soak bench bench-smoke examples strays

build:
	$(GO) build ./...

# -shuffle=on runs each package's tests in a random order (the seed is
# printed), so no test may lean on state a sibling left behind.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The serving path shares one pipeline across handler goroutines and the
# registry hot-swaps it under live traffic; the offline pipeline fans out
# ingest/augmentation/training/experiments across a worker pool. Keep all
# of it provably race-clean.
race:
	$(GO) test -race -shuffle=on ./internal/serve/... ./internal/obs/... ./internal/registry/... ./internal/model/... ./internal/faults/... ./internal/autopilot/... ./internal/drift/... ./internal/cluster/... ./internal/plan/... ./cmd/tasqd/...
	$(GO) test -race -shuffle=on ./internal/parallel/... ./internal/flight/... ./internal/trainer/... ./internal/experiments/...

# The four soaks below share one kit in internal/harness (boot, seeded
# workers, one attempt ledger reconciled per member against /metrics, the
# fault trace). Their reproducibility tests also hold each soak's
# deterministic outputs to testdata/soak_digests.txt, generated on the
# commit before the kit.
#
# Seeded fault-injection chaos/soak runs over the serving stack (three
# fixed seeds; the same-seed reproducibility check runs without -short in
# `make test`). -short keeps the storm within the CI budget while
# exercising every phase. The saturation phase holds every admission slot
# with withheld-body requests, so its 429 shed does not depend on how
# fast the host drains a burst.
chaos:
	$(GO) test -race -short -run 'TestChaos' -count=1 ./internal/harness/...

# Continuous-learning loop soak: seeded drift phases + registry read
# faults through the full autopilot stack (telemetry HTTP in, reloader
# syncs out), with convergence and quarantine invariants enforced.
# -short stops after the first auto-promotion for the CI budget; the full
# cycle (rollback + recovery + same-seed reproducibility) runs without
# the race detector in `make test` and with it via
# `go test -race -run 'TestAutopilotSoak' ./internal/harness/`.
autopilot-soak:
	$(GO) test -race -short -run 'TestAutopilotSoak' -count=1 ./internal/harness/...

# Sharded-fleet chaos suite: three fixed seeds of kill/partition/restart
# storms over a 3-replica fleet plus a same-seed reproducibility run,
# asserting no lost scores, exact cross-member counter reconciliation,
# minimal key movement, and a mid-storm rolling promotion wave. -short
# trims the step count for the CI budget.
cluster-soak:
	$(GO) test -race -short -run 'TestFleet(Chaos|Reproducibility)' -count=1 ./internal/harness/...

# Planner soak: seeded batches through the shared allocation core and the
# serving planner, asserting cluster-level token savings vs. the Peak and
# AutoToken baselines plus event-for-event same-seed reproducibility.
# -short plans 60 batches for the CI budget; the full run (no -short)
# pushes one million simulated jobs: 1,000 plans x 1,000 jobs x 3 lanes.
plan-soak:
	$(GO) test -race -short -run 'TestPlanSoak' -count=1 ./internal/harness/...

coverage:
	scripts/coverage.sh

bench:
	scripts/bench.sh

# One iteration of every serving and planner benchmark (the per-predictor
# miss path, BenchmarkDecodeScoreRequest and BenchmarkPlanResolve1000 in
# internal/serve included), of BenchmarkExecutorRun and of BenchmarkGenerate:
# catches bit-rot in the bench harness itself without paying for real
# measurement (the pipeline benches train full models and stay out of the
# per-merge gate).
bench-smoke:
	$(GO) test -run='^$$' -bench='^Benchmark(Score|Batch|Decode)' -benchtime=1x -count=1 ./internal/serve/ ./internal/cluster/
	$(GO) test -run='^$$' -bench='^BenchmarkPlan' -benchtime=1x -count=1 ./internal/plan/ ./internal/serve/
	$(GO) test -run='^$$' -bench='^BenchmarkExecutorRun$$' -benchtime=1x -count=1 ./internal/scopesim/
	$(GO) test -run='^$$' -bench='^BenchmarkGenerate$$' -benchtime=1x -count=1 ./internal/workload/

# Runs every example to a zero exit under a timeout; `build` only compiles
# them. About 10 s on 2 CPUs.
examples:
	scripts/examples.sh

# Fails if any tasqd, tasq, tasq-bench, experiments, Go test binary (fuzz
# workers included) or `go run` executable is still running: the last step
# of check, so a stage that leaks a process fails the gate instead of the
# next run.
strays:
	scripts/strays.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

check: fmt vet test race chaos autopilot-soak cluster-soak plan-soak bench-smoke examples strays
	@echo "check: ok"
