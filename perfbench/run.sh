#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact stays under
# .bench_build/ in the working directory: the Go build cache, the module
# cache, temporary files, a private HOME for the toolchain's own files, and
# the benchmark binary.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
