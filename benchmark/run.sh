#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it with the arguments given. Everything the build
# writes (the binary and Go's build cache) stays inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOTOOLCHAIN=local \
	go build -o "$build/lunasolar-benchmark" ./benchmark
exec "$build/lunasolar-benchmark" "$@"
