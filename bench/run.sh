#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Builds bench and
# bench/node from source into .bench_build/ of the checkout it is run from,
# then runs bench with the arguments it was given. Everything it writes —
# build cache, binaries, document roots, WALs — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/work" "$build/tmp"
# The go command's cache, module path, temporary files, and configuration and
# telemetry directory all move into the checkout; nothing is fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" . && go build -o "$build/node" ./node) >&2
# What a build has just written is flushed now, not during the timed windows.
sync
exec "$build/bench" -node "$build/node" -work "$build/work" -out "$here/out" "$@"
