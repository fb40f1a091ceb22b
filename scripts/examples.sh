#!/bin/sh
# Runs every program under examples/ to completion: each is built once,
# then run under a timeout, and must exit 0. `go build ./...` only
# compiles them; this catches one that panics, hangs or errors at run
# time. A failing example's output is printed; a passing one's is not.
# Builds the binaries in a temporary directory it removes on exit, so the
# timeout reaches the program itself rather than a `go run` wrapper.
set -eu
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT INT TERM
for dir in examples/*/; do
	name=$(basename "$dir")
	go build -o "$bin/$name" "./$dir"
	start=$(date +%s)
	if ! out=$(timeout -k 10 120 "$bin/$name" 2>&1); then
		echo "$out" >&2
		echo "examples: $name failed" >&2
		exit 1
	fi
	echo "examples: $name ok ($(( $(date +%s) - start )) s)"
done
