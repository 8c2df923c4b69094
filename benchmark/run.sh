#!/usr/bin/env bash
# Builds the PoE benchmark from source and runs it with the given flags.
#
#   bash benchmark/run.sh --workload write-durable --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, span files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local
export GOMAXPROCS=2

(cd "$root/benchmark" && go build -o "$build/poe-benchmark" .) >&2
exec "$build/poe-benchmark" "$@"
