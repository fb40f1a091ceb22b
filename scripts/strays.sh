#!/bin/sh
# Lists every live binary this repo builds or runs and exits 1 if it finds
# one: a run that leaves one behind has leaked a process. Prints nothing
# when there is none. It matches tasqd, tasq, tasq-bench, experiments, Go
# test binaries (*.test, fuzz workers included) and anything `go run`
# executes, which lives under a go-build.../exe/ directory.
#
# Matches on each process's argv[0] from `ps -eo pid,args`: `pgrep -f`
# would match this script's own shell, and `pgrep -x` compares the
# kernel's command name, which is cut to 15 characters (experiments.test
# shows as "experiments.tes").
set -eu
found=$(ps -eo pid=,args= | awk '{
	name = $2
	sub(/.*\//, "", name)
	if (name == "tasqd" || name == "tasq" || name == "tasq-bench" || name == "experiments" ||
		name ~ /\.test$/ || $2 ~ /\/go-build[^\/]*\/.*\/exe\//)
		print
}')
if [ -n "$found" ]; then
	echo "strays: processes still running:" >&2
	echo "$found" >&2
	exit 1
fi
