#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from anywhere; it works from the repository root, and keeps the
# build cache, the binary and the serve workload's temporary files under
# .bench_build there. See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
