#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it from the root of a
# checkout. Every argument is passed through, e.g.
#   bash simbench/run.sh --workload dc5k-dr --seed 1 --seconds 30 --trace 0
# The Go build cache, toolchain config, temporary files and the binary stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOENV=off
(cd "$root/simbench" && go build -o "$build/simbench" .)
exec "$build/simbench" "$@"
