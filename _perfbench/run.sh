#!/usr/bin/env bash
# Builds the benchmark and the server from the checkout's sources into
# .bench_build, then runs one workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload ask-large --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache stays inside the checkout.
set -euo pipefail
root=$(pwd)
bench="$root/_perfbench"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$bench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod found)" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off
go -C "$bench" build -o "$build/perfbench" .
go -C "$bench" build -o "$build/wqe-serve" wqe/cmd/wqe-serve
exec "$build/perfbench" -serve-bin "$build/wqe-serve" -work "$build/work" "$@"
