#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark, e.g.
#
#   bash dpssbench/run.sh --workload geo-lp --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, checkpoints and span files all go to
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
(cd dpssbench && go build -o "$out/dpssbench" .) >&2
exec "$out/dpssbench" "$@"
