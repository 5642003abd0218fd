#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, for example
#
#   bash perfbench/run.sh --workload fig4-lbm --seed 7 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
