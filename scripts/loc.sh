#!/bin/sh
# Prints the non-test Go lines added, removed and net since <base>, outside
# bench/: the size figure each change reports. Compares <base> with the
# working tree; a new file counts once it is staged (git add).
#
#   scripts/loc.sh main   # prints: added <a> removed <r> net <a-r>
set -eu
if [ $# -ne 1 ]; then
	echo "usage: scripts/loc.sh <base>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
git diff --numstat "$1" -- '*.go' ':!*_test.go' ':!bench' |
	awk '{a += $1; d += $2} END {printf "added %d removed %d net %d\n", a, d, a - d}'
