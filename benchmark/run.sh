#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload steady --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the traced run's exports all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
# downloaded.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$build/exflow-bench" .)
exec "$build/exflow-bench" --out "$build/traces" "$@"
