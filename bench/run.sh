#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go build cache, temporary files, the binary) stays under
# .bench_build in the checkout; the arguments go to the program as
# they are.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOENV=off
go build -C "$root/bench" -o "$build/tvaperf" . >&2
cd "$root"
exec "$build/tvaperf" "$@"
