#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Everything the
# build leaves behind, Go's build cache included, goes to .bench_build/ at
# the root of the checkout, so a run writes nowhere else.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -buildvcs=false -o "$out/vifbench" .
exec "$out/vifbench" -decl "$root/BENCHMARK.json" "$@"
