#!/usr/bin/env bash
# Runs every fuzz target of the repository for a while, one after the
# other; the first crash fails the run. This is CI's fuzz gate and its
# local form. The targets are whatever `func Fuzz…` the test files
# declare, so a new one runs without being listed anywhere.
#
#   scripts/fuzz-all.sh [fuzztime]
set -euo pipefail
fuzztime="${1:-5s}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
grep -rn --include='*_test.go' '^func Fuzz' . | grep -v '^\./\.' | sort |
	while IFS=: read -r file _ decl; do
		target="${decl#func }"
		target="${target%%(*}"
		echo "== $target ($(dirname "$file"))"
		go test -run '^$' -fuzz "^$target\$" -fuzztime="$fuzztime" "$(dirname "$file")/"
	done
