#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload grid-uniform --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the working directory: the Go build cache, the binary, result files,
# spans and the durable services' data directories.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# Build output goes to standard error: the last line of standard output
# is the benchmark's result.
(cd "$root/bench" && go build -o "$build/cijbench" .) >&2
exec "$build/cijbench" "$@"
