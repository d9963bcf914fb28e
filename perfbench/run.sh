#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet_batch --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay inside the checkout, under
# .bench_build/. Build output goes to stderr, so the last line of stdout
# is always the benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
go build -C "${root}/perfbench" -o "${build}/perfbench" . >&2
exec "${build}/perfbench" "$@"
