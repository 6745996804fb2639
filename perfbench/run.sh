#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it.
#
#   bash perfbench/run.sh --workload remote-scan --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporaries) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
