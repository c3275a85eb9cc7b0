#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from and executes it with the arguments given. Everything the
# Go toolchain writes (build cache included) stays inside the checkout.
# The first build compiles the standard library into the fresh cache and
# takes about a minute; later runs reuse it and start in under a second.
set -euo pipefail

if [[ ! -f bench/go.mod || ! -f go.mod ]]; then
	echo "bench/run.sh: run from the root of a checkout that holds the repro module (go.mod) and bench/" >&2
	exit 2
fi
root=$PWD
mkdir -p "$root/.bench_build"
# HOME is redirected for the build alone so that the toolchain's
# per-user files (telemetry counters, GOPATH) land in the checkout too.
env -u XDG_CONFIG_HOME -u XDG_CACHE_HOME HOME="$root/.bench_build/home" \
	GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOFLAGS= \
	go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
