#!/usr/bin/env bash
# Builds the DVC benchmark from the source tree it sits in and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lsc26 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, the binary)
# goes under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/dvcperf" .) >&2
exec "$out/dvcperf" "$@"
