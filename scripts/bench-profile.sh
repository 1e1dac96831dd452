#!/usr/bin/env bash
# The CPU-profile protocol behind the "where the time went" tables in
# EXPERIMENTS.md (E24, E26): the unchanged harness, profiled from
# outside. benchmark/ has no profile flag and is not edited; a copy of it
# under .bench_build/ gets one more file whose init() profiles the child
# process — the one that runs the workload — and is built against this
# tree.
#
#   scripts/bench-profile.sh <workload> [seconds] [seed]
#
# The profile covers three quarters of the timed region, from one second
# in (set-up and warm-up are over by then). Prints `pprof -top -cum`; the
# profile and the binary stay in .bench_build/profile/ for -list and
# -peek. Run nothing else meanwhile (two CPUs).
set -euo pipefail
workload="${1:?usage: bench-profile.sh <workload> [seconds] [seed]}"
seconds="${2:-12}"
seed="${3:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
dir="$build/profile"
src="$dir/benchmark"
rm -rf "$dir"
mkdir -p "$src"
cp "$root"/benchmark/*.go "$root/benchmark/go.mod" "$src/"
rm -f "$src"/*_test.go

cat >"$src/profile_hook.go" <<EOF
package main

import (
	"os"
	"runtime/pprof"
	"slices"
	"time"
)

// Written by scripts/bench-profile.sh; not part of the benchmark.
func init() {
	if !slices.Contains(os.Args, "-child") {
		return
	}
	f, err := os.Create("$dir/cpu.prof")
	if err != nil {
		panic(err)
	}
	go func() {
		time.Sleep(time.Second)
		if err := pprof.StartCPUProfile(f); err != nil {
			panic(err)
		}
		time.Sleep($seconds * time.Second * 3 / 4)
		pprof.StopCPUProfile()
		f.Close()
	}()
}
EOF

export GOCACHE="${GOCACHE:-$build/gocache}" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local
(cd "$src" && go mod edit -replace "allscale=$root" && go build -o "$dir/allscale-benchmark" .)
cd "$root"
"$dir/allscale-benchmark" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 | tail -n 1
go tool pprof -top -cum -nodecount=60 "$dir/allscale-benchmark" "$dir/cpu.prof"
