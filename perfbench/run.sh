#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload kmodes-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the benchmark write stays under .bench_build/
# at the checkout root: the Go build cache, GOPATH and the toolchain's
# config and telemetry directory included. Build output goes to standard
# error, so the benchmark's result line stays the last line of standard
# output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
