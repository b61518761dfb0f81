#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout's
# root; every argument is passed through (see main.go). The Go build and
# module caches and the toolchain's configuration directory (telemetry)
# live in .bench_build, so a run writes only inside the checkout, and the
# build never reaches the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$build"
(cd "$root/bench" && go build -o "$build/ccdp-bench" .)
cd "$root"
exec "$build/ccdp-bench" "$@"
