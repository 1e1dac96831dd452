#!/usr/bin/env bash
# The ledger gate: this tree against a checkout of its parent commit, both
# run on this machine by the pair protocol (scripts/bench-pairs.sh), three
# alternating pairs per workload at the benchmark's own run length, seed 1.
# It exits 1 when, for some workload,
#   - an end-to-end metric (op_p50_ms, setup_s) has a change median above
#     the parent's median plus the parent's interquartile distance plus a
#     floor of the metric's `bound` in BENCHMARK.json (a share of the
#     parent's median), or
#   - the change failed more operations than the parent.
#
#   scripts/bench-gate.sh <parent-checkout> [outdir]
#
# <parent-checkout> is a `git clone` (or `git archive` copy) of the parent
# commit. The pair files and commits.txt, which names both commits, stay in
# <outdir> (default .bench_build/gate).
set -euo pipefail
parent="${1:?usage: bench-gate.sh <parent-checkout> [outdir]}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${2:-$root/.bench_build/gate}"
pairs=3
seconds="$(jq -r .run_seconds "$root/BENCHMARK.json")"
# "op_p50_ms=0.25 setup_s=0.25": each end-to-end metric's bound.
bounds="$(jq -r '[.end_to_end[] | "\(.name)=\(.bound)"] | join(" ")' "$root/BENCHMARK.json")"
mkdir -p "$out"

# rev <checkout>: its commit, marked when tracked files differ from it.
rev() {
	local h
	h="$(git -C "$1" rev-parse --short HEAD 2>/dev/null)" || { echo unknown; return; }
	[ -z "$(git -C "$1" status --porcelain --untracked-files=no)" ] || h="$h+uncommitted"
	echo "$h"
}
echo "parent $(rev "$parent") change $(rev "$root")" | tee "$out/commits.txt"

table="$("$root/scripts/bench-pairs.sh" "$parent" 1 "$pairs" "$seconds" "$out")"
echo "$table"
echo
# Each row of the pair table: | workload metric | parent q1 / median / q3 |
# change q1 / median / q3 | median | change lower in | failed P / C |
echo "$table" | awk -F'|' -v bounds="$bounds" '
	BEGIN {
		n = split(bounds, kv, " ")
		for (i = 1; i <= n; i++) { split(kv[i], b, "="); bound[b[1]] = b[2] }
		printf "| workload, metric | parent median | limit | change median | failed P / C | verdict |\n|---|---|---|---|---|---|\n"
	}
	NR > 2 {
		split($2, wm, "`"); split($3, p, "/"); split($4, c, "/"); split($7, f, "/")
		known = wm[4] in bound # before bound[wm[4]] below creates the entry
		limit = p[2] + (p[3] - p[1]) + bound[wm[4]] * p[2]
		verdict = "pass"
		if (!known) verdict = "FAIL (no bound in BENCHMARK.json)"
		else if (p[2] <= 0 || c[2] <= 0) verdict = "FAIL (no runs)"
		else if (c[2] > limit) verdict = "FAIL (slower)"
		else if (f[2] + 0 > f[1] + 0) verdict = "FAIL (more failed operations)"
		if (verdict != "pass") bad++
		printf "|%s| %.4g | %.4g | %.4g | %d / %d | %s |\n", $2, p[2], limit, c[2], f[1], f[2], verdict
	}
	END {
		if (bad) { printf "ledger gate: %d row(s) failed\n", bad; exit 1 }
		print "ledger gate: pass"
	}'
