#!/usr/bin/env bash
# Builds the frame→verdict benchmark from source and runs it with the given
# flags (--workload, --seed, --seconds, --trace). Run from the repository
# root. Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/fiat-perfbench" . >&2
exec "$out/fiat-perfbench" -state "$out" "$@"
