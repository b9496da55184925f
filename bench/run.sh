#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Compiles the benchmark from the
# checkout this script sits in and runs it; the benchmark itself then
# builds cmd/mcost-serve and cmd/mcost-router. Everything the toolchain
# writes (build cache, temp files, telemetry) is kept under .bench_build
# in the checkout, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
cd "$root/bench"
go build -o "$build/bin/mcost-bench" .
cd "$root"
exec "$build/bin/mcost-bench" "$@"
