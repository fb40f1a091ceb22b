#!/usr/bin/env bash
# Builds the benchmark driver and the commit's own tasqd, then runs the
# driver from the repository root. Everything the build writes (binaries,
# Go's build cache and telemetry counters) stays under bench/out/, so a run
# reads and writes nothing outside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out="$PWD/bench/out"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

go build -o "$out/tasqd" ./cmd/tasqd
go build -o "$out/tasq-bench" ./bench
exec "$out/tasq-bench" "$@"
