#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (once; later
# calls find it up to date) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload ingest_bulk --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and module cache are pointed into .bench_build unless the caller
# already set them, and no module is downloaded (the benchmark imports only
# the standard library and this repository).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="${GOCACHE:-$build/gocache}"
export GOMODCACHE="${GOMODCACHE:-$build/gomodcache}"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/passbench" .)
exec "$build/passbench" -out "$build" "$@"
