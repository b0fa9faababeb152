#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# root of a commprof checkout:
#
#   bash perfbench/run.sh --workload profile-radix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, the benchmark binary, the probe target's
# builds and each run's scratch files.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
