#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run it from the
# repository root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --rates ingest=2000,count=200,mixed=2000,rebalance=600 \
#       --workload count --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set), so a run writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
