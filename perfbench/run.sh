#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sdk-rw --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 5 --workload zoned-churn --seconds 10
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the benchmark binary, CPU profiles and
# traced-run output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
