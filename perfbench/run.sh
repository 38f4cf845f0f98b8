#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload refresh --seed 1 --seconds 10 --trace 0
# Everything the build and the run write (Go build cache, binary, cached
# inputs, traces) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cache "$out/cache" "$@"
