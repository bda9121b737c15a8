#!/usr/bin/env bash
# Builds servebench from the checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash servebench/run.sh --workload cold --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binary, toolchain
# config) stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
