#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there with both cores. Everything the build and
# the run write, the toolchain's caches and temporary files included, stays
# below .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local go build -o "$build/dcer-benchmark" .
)
cd "$root"
GOMAXPROCS=2 exec "$build/dcer-benchmark" "$@"
