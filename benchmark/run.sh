#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload search --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the Go tool's temporary files and its
# configuration all live under .bench_build at the checkout root, so a
# run writes nothing outside the checkout and needs no network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/seesaw-benchmark" .)
exec "$build/seesaw-benchmark" --out "$build" "$@"
