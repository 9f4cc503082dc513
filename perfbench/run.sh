#!/usr/bin/env bash
# Builds brainy-train, brainy-serve and the benchmark from source into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload advise-hot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/brainy-train ./cmd/brainy-serve >&2
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
