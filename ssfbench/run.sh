#!/usr/bin/env bash
# Builds the benchmark from the working tree it is run from and runs it;
# every argument goes to the benchmark. Build outputs, the Go build cache
# and the benchmark's scratch files all stay under .bench_build/.
#
#   bash ssfbench/run.sh --workload gate-importance --seed 1 --seconds 15 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOENV=off GOTELEMETRY=off

go build -o "$out/ssfbench" ./ssfbench
exec "$out/ssfbench" "$@"
