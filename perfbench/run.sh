#!/usr/bin/env bash
# Builds the sitm benchmark from the checkout's sources and runs it. Run from
# the root of a checkout; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload query_select --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and store directories all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/sitmbench" .)
exec "$build/sitmbench" -workdir "$build" "$@"
