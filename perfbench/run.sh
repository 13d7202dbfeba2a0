#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload replay|live|batch --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build artifact (the Go build cache
# included) lands under .bench_build, so the benchmark writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
