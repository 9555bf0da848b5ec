#!/bin/bash
# Builds the benchmark from source inside the checkout (binary and Go build
# cache both under .bench_build/) and runs it with the caller's flags:
#
#   bash bench/run.sh --workload wire_create --seed 1 --seconds 22 --trace 0
#
# The build fails, and this script with it, where the repository's packages
# are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
