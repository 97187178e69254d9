#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from
# (the repository root) and runs it with the given arguments:
#   bash perfbench/run.sh --workload engine-htap --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
