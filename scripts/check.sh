#!/bin/sh
# The full verification gate. The Makefile's `check` target is the one
# list of stages; this script only runs it from the repository root.
set -eu
cd "$(dirname "$0")/.."
exec make check
