#!/usr/bin/env bash
# BENCHMARK.json's command: build jengaperf once into .bench_build/ in
# the checkout, then exec it in the foreground — no `go run` (a killed
# `go run` orphans its child), no background job, no helper process.
# Everything it writes (Go build cache, binary, span files) stays under
# .bench_build/, which .gitignore names: the benchmark contract allows
# no read or write outside the checkout, so neither a temp dir nor the
# user's GOCACHE is used. The build's wall time is handed to the binary
# (-spent), so that -budget covers the whole command.
set -euo pipefail
start=$(date +%s%N)
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/jengaperf" ./cmd/jengaperf
exec "$out/jengaperf" -spent "$(( ($(date +%s%N) - start) / 1000000 ))ms" "$@"
