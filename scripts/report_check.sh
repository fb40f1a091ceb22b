#!/usr/bin/env bash
# Reruns the full experiment suite (go run ./cmd/experiments -size full
# -seed 7) and diffs its report against the checked-in report_full.txt,
# ignoring only Table 7's wall-clock columns (Train s/epoch, Inference
# s/10K jobs), which vary by host. Every other line is deterministic, so
# any difference fails. About 2.5 minutes on 2 CPUs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
want=report_full.txt
got=$(mktemp)
trap 'rm -f "$got"' EXIT
go run ./cmd/experiments -size full -seed 7 -out "$got" >/dev/null

# Table 7 runs from its title to the next blank line; keep the first two
# columns (Model, Parameters) of each of its lines.
strip7() {
	awk '/^Table 7/ { print; s = 1; next }
		s && NF == 0 { s = 0 }
		s { print $1, $2; next }
		{ print }' "$1"
}
diff -u --label "$want" --label "rerun" <(strip7 "$want") <(strip7 "$got")
