#!/usr/bin/env bash
# Builds interopd and the benchmark from the checkout's sources, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/interopd" ./cmd/interopd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -interopd "$out/interopd" -work "$out" "$@"
