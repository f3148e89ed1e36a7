#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root.  Every build product, cache and scratch
# file stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), and the Go toolchain is kept offline.
set -euo pipefail
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
