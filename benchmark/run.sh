#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds ./benchmark from source into
# .bench_build/ at the root of the checkout (build cache and temporary
# files included, so nothing is read or written outside it) and runs one
# workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `go run ./benchmark` is the same program for interactive use.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/qabench" ./benchmark
exec "$out/qabench" "$@"
