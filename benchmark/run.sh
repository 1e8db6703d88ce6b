#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Go's build cache is
# kept there too, so that everything the build and the run write stays
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
