#!/bin/sh
# Full verification gate, equivalent to `make check`: formatting, vet,
# build, tier-1 tests, and a race-detector pass over the concurrent
# serving path.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== go vet"
go vet ./...
echo "== go build"
go build ./...
echo "== go test (shuffled)"
go test -shuffle=on ./...
echo "== go test -race (serving + registry path)"
go test -race -shuffle=on ./internal/serve/... ./internal/obs/... ./internal/registry/... ./internal/model/... ./internal/faults/... ./internal/autopilot/... ./internal/drift/... ./internal/cluster/... ./internal/plan/... ./cmd/tasqd/...
echo "== go test -race (parallel offline pipeline)"
go test -race -shuffle=on ./internal/parallel/... ./internal/flight/... ./internal/trainer/... ./internal/experiments/...
echo "== chaos harness (seeded fault injection, race detector)"
go test -race -short -run 'TestChaos' -count=1 ./internal/harness/...
echo "== autopilot soak (drift + faults through the learning loop, race detector)"
go test -race -short -run 'TestAutopilotSoak' -count=1 ./internal/harness/...
echo "== cluster soak (sharded-fleet kill/partition/restart chaos, race detector)"
go test -race -short -run 'TestFleet(Chaos|Reproducibility)' -count=1 ./internal/harness/...
echo "== planner soak (seeded batches, savings vs baselines + reproducibility, race detector)"
go test -race -short -run 'TestPlanSoak' -count=1 ./internal/harness/...
echo "== serving bench smoke (1 iteration, harness bit-rot check)"
go test -run='^$' -bench='^Benchmark(Score|Batch)' -benchtime=1x -count=1 ./internal/serve/ ./internal/cluster/
go test -run='^$' -bench='^BenchmarkPlan' -benchtime=1x -count=1 ./internal/plan/ ./internal/serve/
echo "check: ok"
