#!/bin/bash
# Entry point named by BENCHMARK.json: `go run ./bench` with go's build cache
# and temporary files kept inside the checkout (under .bench_build), so that a
# run reads and writes nothing outside it. Arguments pass through.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
exec go run ./bench "$@"
