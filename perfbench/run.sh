#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
#
#   bash perfbench/run.sh --workload sweep-rrt|sweep-grid|serve-mix|all \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files all live under .bench_build (or $CARGO_TARGET_DIR
# when set), so nothing is written outside the checkout. The build needs the
# rest of the repository: run from a directory holding only the benchmark, it
# fails before printing a result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-run" "$@"
