#!/usr/bin/env bash
# Builds the harness from source, then runs it from the checkout root
# with the arguments given. Build cache and binary stay inside the
# checkout, under .bench_build/.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOWORK=off
go build -C "$bench" -o "$build/nwsbench" .
cd "$root"
exec "$build/nwsbench" "$@"
