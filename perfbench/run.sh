#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache and the binary under .bench_build, per-run state
# (job journals, stores, toolkit artifacts, traces) under .bench_run,
# which the benchmark removes before it exits.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -dir "$root/.bench_run" "$@"
