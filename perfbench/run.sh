#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tpch_local --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's data files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working tree.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off GOTELEMETRY=off

# The build's own output goes to stderr: the last line of stdout is the result.
go -C perfbench build -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
