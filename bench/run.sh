#!/usr/bin/env bash
# Hermetic launcher for the regression benchmark: builds ./bench with
# every Go cache and temporary file inside the checkout's .bench_build/,
# then runs it with the given arguments. BENCHMARK.json names this file
# as its command; `go run ./bench` works too but uses the user's caches.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no go.mod): nothing to benchmark" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOTMPDIR="$build/tmp"
# The program's own temp files (registry dirs, spilled keys, witness
# pages) follow TMPDIR.
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"

go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
