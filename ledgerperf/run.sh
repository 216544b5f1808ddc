#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository root:
#
#   bash ledgerperf/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary stay under .bench_build/ in
# the checkout, and nothing is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off
go -C "$root/ledgerperf" build -o "$out/ledgerperf" .
exec "$out/ledgerperf" "$@"
