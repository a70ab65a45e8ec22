#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it there. Run from the repository root:
#
#   bash perfbench/run.sh --workload guest-run --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go caches, temporary files, the
# daemon workload's store directory, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
