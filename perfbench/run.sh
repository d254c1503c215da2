#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#
#   bash perfbench/run.sh --workload flat-melo --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the toolchain's temporary files and
# every other file it writes stay under .bench_build/ at the root of the
# checkout. Without the repository's sources beside perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
