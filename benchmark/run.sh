#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# checkout, keeping everything the toolchain and the run write below
# .bench_build/ in that checkout. This is the command BENCHMARK.json names:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The benchmark is a module of its own (benchmark/go.mod) that takes the
# code under test from the directory above it; where that directory holds
# no Go module the build fails and this script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# A toolchain confined to the checkout: its caches live under .bench_build/,
# it reads no user configuration, and it never reaches for the network.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/riveter-benchmark" .)
cd "$root"
exec "$build/riveter-benchmark" "$@"
