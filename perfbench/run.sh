#!/usr/bin/env bash
# Builds cmd/xqd and the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload twig-count --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
mkdir -p "$TMPDIR" .bench_build/bin
go build -o .bench_build/bin/xqd ./cmd/xqd >&2
(cd perfbench && go build -o ../.bench_build/bin/perfbench .) >&2
exec .bench_build/bin/perfbench "$@"
