#!/usr/bin/env bash
# Builds and runs the campaign benchmark (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload figs-bytecode --seed 1 --seconds 20 --trace 0
#
# Every file the benchmark and the toolchain write lands under
# perfbench/.work: the Go build cache, the toolchain's temp files, the
# plugin store and the per-run private plugin caches.
set -eu
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
work="$bench/.work"
mkdir -p "$work/tmp" "$work/gocache" "$work/gopath" "$work/config"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" \
	TMPDIR="$work/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GO111MODULE=on
# The go command's telemetry would write counter files on every invocation,
# including the timed set-up's go build.
go telemetry off
cd "$bench"
exec go run . -root "$root" "$@"
