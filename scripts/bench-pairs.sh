#!/usr/bin/env bash
# The pair protocol behind every ledger comparison in EXPERIMENTS.md
# (E17 onwards): per workload, N pairs of runs of the unchanged harness —
# one from a checkout of the parent commit, one from this tree —
# alternating which side goes first, then first quartile / median / third
# quartile per side and in how many pairs the change read lower.
#
#   scripts/bench-pairs.sh <parent-checkout> [seed] [pairs] [seconds] [outdir]
#
# <parent-checkout> is a `git clone` (or `git archive` copy) of the parent
# commit; each side builds from its own source into its own .bench_build/.
# WORKLOADS="stencil-halo tpc-query" restricts the run. Every run's result
# object is kept, one per line, in <outdir>/<workload>.{parent,change}.jsonl.
set -euo pipefail
parent="${1:?usage: bench-pairs.sh <parent-checkout> [seed] [pairs] [seconds] [outdir]}"
seed="${2:-1}"
pairs="${3:-10}"
seconds="${4:-25}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${5:-$root/.bench_build/pairs}"
workloads="${WORKLOADS:-stencil-halo spawn-tree tpc-query jobs-mixed}"
mkdir -p "$out"

run() { # side dir workload
	bash "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 |
		tail -n 1 >>"$out/$3.$1.jsonl"
}

for w in $workloads; do
	: >"$out/$w.parent.jsonl"
	: >"$out/$w.change.jsonl"
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			run parent "$parent" "$w"
			run change "$root" "$w"
		else
			run change "$root" "$w"
			run parent "$parent" "$w"
		fi
		echo "$w: pair $((i + 1)) of $pairs done" >&2
	done
done

# field <file> <metric>: the metric's value of every run, in run order.
field() { sed -n "s/.*\"$2\":{\"value\":\([-0-9.e+]*\).*/\1/p" "$1"; }
failed() { sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$1" | awk '{ n += $1 } END { print n + 0 }'; }

printf '| workload, metric | parent q1 / median / q3 | change q1 / median / q3 | median | change lower in | failed P / C |\n|---|---|---|---|---|---|\n'
for w in $workloads; do
	for m in op_p50_ms setup_s; do
		paste <(field "$out/$w.parent.jsonl" "$m") <(field "$out/$w.change.jsonl" "$m") | awk -v w="$w" -v m="$m" \
			-v fp="$(failed "$out/$w.parent.jsonl")" -v fc="$(failed "$out/$w.change.jsonl")" '
			function q(a, n, f,   pos, lo) { pos = f * (n - 1) + 1; lo = int(pos); return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) }
			function sort(a, n,   i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
			{ n++; p[n] = $1; c[n] = $2; if ($2 < $1) lower++ }
			END {
				sort(p, n); sort(c, n)
				printf "| `%s` `%s` | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %+.1f %% | %d of %d | %d / %d |\n", w, m,
					q(p, n, .25), q(p, n, .5), q(p, n, .75), q(c, n, .25), q(c, n, .5), q(c, n, .75),
					100 * (q(c, n, .5) / q(p, n, .5) - 1), lower, n, fp, fc
			}'
	done
done
