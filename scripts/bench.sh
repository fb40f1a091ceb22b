#!/bin/sh
# Runs the perf benchmark suites and distills their results into the
# checked-in trajectory files future PRs regress against:
#
#   BENCH_pipeline.json  per-stage offline pipeline numbers at Workers=1
#                        and Workers=NumCPU (pipeline_bench_test.go), plus
#                        the end-to-end SmallConfig suite speedup, plus the
#                        retrain path's kernels with allocs/op and B/op: one
#                        GNN forward+backward and one NN epoch on a recycled
#                        tape, one AREPAS sweep, one boosted-tree fit, and
#                        one autopilot-sized retrain (trainer.TrainWindow
#                        over 4,096 records) with its peak heap; the Train
#                        stage rows carry allocs/op and B/op too; and the
#                        held_job object, what generating a job allocates
#                        and what a held job keeps (internal/workload
#                        BenchmarkGenerate: B/job, retained_B/job and
#                        allocs/op over its 512-job population)
#   BENCH_serving.json   serving hot-path numbers (internal/serve
#                        bench_test.go): cached single-score ns/op and
#                        allocs/op, the miss path per predictor
#                        (uncached/nn, gnn, xgbpl, xgbss), scores/sec
#                        serially and at
#                        GOMAXPROCS clients, p50/p99 latency through the
#                        admission gate, and batch throughput; plus the
#                        sharded-fleet routing number (internal/cluster
#                        bench_test.go): consistent-hash ring pick +
#                        cached score on the owning member
#   BENCH_planner.json   cluster-planner numbers (internal/plan
#                        bench_test.go): full 1,000-job plan build under
#                        each strategy (PlanBuild1000 is FCFS,
#                        PlanBackfill1000, PlanRetry1000) and the bare
#                        event loop under each discipline
#                        (PlanSimulateFCFS1000, PlanSimulateBackfill1000,
#                        PlanSimulateRetry1000), as plans/sec with the
#                        constant jobs/plan and the derived jobs/sec; plus
#                        the served planner's curve-resolution layer
#                        (internal/serve BenchmarkPlanResolve1000): a
#                        1,000-job FCFS PlanLocal against a fresh server
#                        (cold: every curve a miss) and a primed cache
#
# All files derive throughput (jobs/sec, plans/sec) in ONE place — the
# shared awk program below — from ns/op and the benchmark's constant
# jobs/op metric, so no benchmark computes throughput itself. Re-run on a
# target machine to refresh the checked-in numbers:
#
#	scripts/bench.sh                  # writes all three files
#	BENCHTIME=5x scripts/bench.sh     # more repetitions per point
set -eu
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
# The retrain kernels are micro-benchmarks: a fixed count, large enough that
# the cold first pass that sizes the arena disappears in the mean.
kbenchtime=200x
# A 4,096-record retrain takes about 5 s, so it gets its own small count.
wbenchtime=3x
pipeline_out="${OUT:-BENCH_pipeline.json}"
serving_out="${SERVING_OUT:-BENCH_serving.json}"
planner_out="${PLANNER_OUT:-BENCH_planner.json}"
raw=$(mktemp)
sraw=$(mktemp)
praw=$(mktemp)
trap 'rm -f "$raw" "$sraw" "$praw"' EXIT

echo "== go test -bench=BenchmarkPipeline -benchtime=$benchtime" >&2
go test -run='^$' -bench='^BenchmarkPipeline' -benchtime="$benchtime" -count=1 . | tee "$raw" >&2

echo "== go test (retrain kernels) -bench='Benchmark(ForwardBackward|MLPEpoch|Sweep|Train)' -benchmem -benchtime=$kbenchtime" >&2
go test -run='^$' -bench='^Benchmark(ForwardBackward|MLPEpoch|Sweep|Train)$' -benchmem -benchtime="$kbenchtime" -count=1 \
	./internal/ml/gnn ./internal/ml/nn ./internal/arepas ./internal/ml/gbt | tee -a "$raw" >&2

echo "== go test ./internal/workload -bench=BenchmarkGenerate -benchtime=$kbenchtime" >&2
go test -run='^$' -bench='^BenchmarkGenerate$' -benchtime="$kbenchtime" -count=1 ./internal/workload | tee -a "$raw" >&2

echo "== go test ./internal/trainer -bench=BenchmarkTrainWindow -benchmem -benchtime=$wbenchtime" >&2
go test -run='^$' -bench='^BenchmarkTrainWindow$' -benchmem -benchtime="$wbenchtime" -count=1 ./internal/trainer | tee -a "$raw" >&2

echo "== go test ./internal/serve ./internal/cluster -bench='Benchmark(Score|Batch)' -benchtime=${SERVING_BENCHTIME:-100x}" >&2
go test -run='^$' -bench='^Benchmark(Score|Batch)' -benchtime="${SERVING_BENCHTIME:-100x}" -count=1 ./internal/serve ./internal/cluster | tee "$sraw" >&2

echo "== go test ./internal/plan ./internal/serve -bench=BenchmarkPlan -benchtime=${PLANNER_BENCHTIME:-100x}" >&2
go test -run='^$' -bench='^BenchmarkPlan' -benchtime="${PLANNER_BENCHTIME:-100x}" -count=1 ./internal/plan ./internal/serve | tee "$praw" >&2

goversion=$(go env GOVERSION)
cpus=$(go run ./scripts/ncpu 2>/dev/null || getconf _NPROCESSORS_ONLN)

# The single place throughput is derived: jobs/sec = jobs-per-op * 1e9 / ns-per-op.
# GOMAXPROCS is read off the -N suffix go test stamps on every benchmark name.
bench_awk='
function jps(ns, jobsop) {
	if (jobsop == "" || jobsop + 0 <= 0) jobsop = 1
	return jobsop * 1e9 / ns
}
/^goos: / { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: / { cpumodel = substr($0, 6); gsub(/["\\]/, "", cpumodel) }
/^pkg: / { n_pkg = split($2, pkgparts, "/"); pkg = pkgparts[n_pkg] }
/^Benchmark/ {
	name = $1
	if (match(name, /-[0-9]+$/)) {
		g = substr(name, RSTART + 1) + 0
		if (g > gomaxprocs) gomaxprocs = g
		name = substr(name, 1, RSTART - 1)
	}
	split("", met)
	for (i = 3; i < NF; i++) met[$(i + 1)] = $i
	if (!("ns/op" in met)) next
	ns = met["ns/op"] + 0
	if (mode == "pipeline") {
		if (pkg == "workload" && name == "BenchmarkGenerate") {
			held = sprintf("{\"bytes_per_job\": %.0f, \"retained_bytes_per_job\": %.0f, \"allocs_per_op\": %.0f, \"jobs_per_op\": 512}", \
				met["B/job"], met["retained_B/job"], met["allocs/op"])
			next
		}
		if (name !~ /^BenchmarkPipeline/) {
			# A retrain kernel, named by its package: gbt.Train, nn.MLPEpoch.
			kname = pkg "." substr(name, 10)
			if (!(kname in kns)) korder[++kn] = kname
			kns[kname] = ns
			kallocs[kname] = met["allocs/op"]
			kbytes[kname] = met["B/op"]
			kpeak[kname] = ("peak_heap_mb" in met) ? met["peak_heap_mb"] : ""
			next
		}
		split(name, parts, "/")
		stage = substr(parts[1], 18)
		w = substr(parts[2], 9) + 0
		key = stage SUBSEP w
		if (!(key in nsof)) { order[++n] = key; stageof[key] = stage; wof[key] = w }
		nsof[key] = ns
		jobsop[key] = ("jobs/op" in met) ? met["jobs/op"] : ""
		allocs[key] = ("allocs/op" in met) ? met["allocs/op"] : ""
		bytes[key] = ("B/op" in met) ? met["B/op"] : ""
		if (w == 1) serial[stage] = ns
		if (!(stage in maxw) || w > maxw[stage]) { maxw[stage] = w; fastest[stage] = ns }
	} else {
		sub(/^Benchmark/, "", name)
		if (!(name in nsof)) order[++n] = name
		nsof[name] = ns
		jobsop[name] = ("jobs/op" in met) ? met["jobs/op"] : ""
		allocs[name] = ("allocs/op" in met) ? met["allocs/op"] : ""
		bytes[name] = ("B/op" in met) ? met["B/op"] : ""
		p50[name] = ("p50_us" in met) ? met["p50_us"] : ""
		p99[name] = ("p99_us" in met) ? met["p99_us"] : ""
	}
}
END {
	if (gomaxprocs == 0) gomaxprocs = cpus
	printf "{\n"
	printf "  \"generated_by\": \"scripts/bench.sh\",\n"
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"host\": \"%s/%s, %s\",\n", goos, goarch, cpumodel
	printf "  \"cpus\": %d,\n", cpus
	printf "  \"gomaxprocs\": %d,\n", gomaxprocs
	printf "  \"benchtime\": \"%s\",\n", benchtime
	if (mode == "pipeline") {
		printf "  \"stages\": [\n"
		for (i = 1; i <= n; i++) {
			key = order[i]; stage = stageof[key]; w = wof[key]
			printf "    {\"stage\": \"%s\", \"workers\": %d, \"ns_per_op\": %.0f", stage, w, nsof[key]
			if (jobsop[key] != "") printf ", \"jobs_per_sec\": %.0f", jps(nsof[key], jobsop[key])
			if (stage in serial && serial[stage] > 0)
				printf ", \"speedup_vs_workers1\": %.2f", serial[stage] / nsof[key]
			if (allocs[key] != "") printf ", \"allocs_per_op\": %.0f, \"bytes_per_op\": %.0f", allocs[key], bytes[key]
			printf "}%s\n", (i < n ? "," : "")
		}
		printf "  ],\n"
		printf "  \"retrain_kernels_benchtime\": \"%s\",\n", kbenchtime
		printf "  \"train_window_benchtime\": \"%s\",\n", wbenchtime
		printf "  \"retrain_kernels\": [\n"
		for (i = 1; i <= kn; i++) {
			kname = korder[i]
			printf "    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"allocs_per_op\": %.0f, \"bytes_per_op\": %.0f", \
				kname, kns[kname], kallocs[kname], kbytes[kname]
			if (kpeak[kname] != "") printf ", \"peak_heap_mb\": %.1f", kpeak[kname]
			printf "}%s\n", (i < kn ? "," : "")
		}
		printf "  ],\n"
		if (held != "") printf "  \"held_job\": %s,\n", held
		e2e = 1.0
		if (("Suite" in serial) && ("Suite" in fastest) && fastest["Suite"] > 0)
			e2e = serial["Suite"] / fastest["Suite"]
		printf "  \"end_to_end_suite_speedup\": %.2f\n", e2e
	} else if (mode == "planner") {
		printf "  \"results\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"plans_per_sec\": %.1f, \"jobs_per_plan\": %.0f, \"jobs_per_sec\": %.0f", \
				name, nsof[name], 1e9 / nsof[name], jobsop[name] + 0, jps(nsof[name], jobsop[name])
			if (allocs[name] != "") printf ", \"allocs_per_op\": %.0f", allocs[name]
			if (bytes[name] != "") printf ", \"bytes_per_op\": %.0f", bytes[name]
			printf "}%s\n", (i < n ? "," : "")
		}
		printf "  ]\n"
	} else {
		printf "  \"results\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"scores_per_sec\": %.0f", name, nsof[name], jps(nsof[name], jobsop[name])
			if (allocs[name] != "") printf ", \"allocs_per_op\": %.0f", allocs[name]
			if (bytes[name] != "") printf ", \"bytes_per_op\": %.0f", bytes[name]
			if (p50[name] != "") printf ", \"p50_us\": %.1f, \"p99_us\": %.1f", p50[name], p99[name]
			printf "}%s\n", (i < n ? "," : "")
		}
		printf "  ]\n"
	}
	printf "}\n"
}'

awk -v mode=pipeline -v goversion="$goversion" -v cpus="$cpus" -v benchtime="$benchtime" -v kbenchtime="$kbenchtime" -v wbenchtime="$wbenchtime" \
	"$bench_awk" "$raw" > "$pipeline_out"
awk -v mode=serving -v goversion="$goversion" -v cpus="$cpus" -v benchtime="${SERVING_BENCHTIME:-100x}" \
	"$bench_awk" "$sraw" > "$serving_out"
awk -v mode=planner -v goversion="$goversion" -v cpus="$cpus" -v benchtime="${PLANNER_BENCHTIME:-100x}" \
	"$bench_awk" "$praw" > "$planner_out"

echo "wrote $pipeline_out, $serving_out and $planner_out" >&2
