#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. Everything the build and the runs leave behind — Go's build and
# module caches, the binary, job journals — stays in .bench_build/ of
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C "$here" -o "$build/allscale-benchmark" .
cd "$root"
exec "$build/allscale-benchmark" "$@"
