#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload net-point --seed 1 --seconds 10 --trace 0
# Build output and the Go build cache stay under .bench_build/ in the
# current directory; nothing is fetched (GOPROXY=off).
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/tmp"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
