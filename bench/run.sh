#!/usr/bin/env bash
# The benchmark's one entry point: builds the bench driver into
# .bench_build/ (the Go build cache and GOPATH live there too, so a run
# reads and writes only inside the checkout and needs no HOME) and runs
# it from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath"
go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
