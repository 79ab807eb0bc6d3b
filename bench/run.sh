#!/usr/bin/env bash
# Driver entry point: builds the benchmark with a Go build cache inside
# the checkout (nothing is read or written outside it) and runs it.
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -o .bench_build/bin/qtag-bench ./bench
exec .bench_build/bin/qtag-bench "$@"
