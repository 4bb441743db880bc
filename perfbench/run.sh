#!/usr/bin/env bash
# Builds gocci, gocci-serve and the benchmark harness from source into
# .bench_build/ (Go build cache and temp files included, so nothing is
# written outside the checkout), then runs the harness from the checkout
# root. All arguments are passed through:
#
#   bash perfbench/run.sh --workload port-cold --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --smoke
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# Builds go to stderr, so the harness's last stdout line stays the result.
go build -o "$out/bin/" ./cmd/gocci ./cmd/gocci-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin" "$@"
