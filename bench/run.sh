#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json's command.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh run|trace <workload>|report|aa [-seed N] [-smoke]
#
# Everything the build and the run write stays inside the checkout: the go
# build cache, the binary and temp data dirs live under .bench_build/ at the
# root (git-ignored), results under bench/results/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export HOLISTIC_BENCH_DIR="$here"

(cd "$here" && go build -o "$build/holistic-bench" .)
cd "$root"
exec "$build/holistic-bench" "$@"
