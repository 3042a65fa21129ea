#!/usr/bin/env bash
# Builds the binaries the benchmark drives, then runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload point-zipf --seed 1 --seconds 8 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, Go's build cache included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/oracled ./cmd/shardplan ./cmd/apsp ./cmd/mcb
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/perfbench" "$@"
