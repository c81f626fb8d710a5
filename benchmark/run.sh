#!/usr/bin/env bash
# Builds the anysim benchmark from the source in the current checkout and
# runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve-burst --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, toolchain config, the binary,
# span files) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C benchmark build -o "$out/anysim-bench" .
exec "$out/anysim-bench" "$@"
