#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, traces, service stores)
# stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "run.sh: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -root "$root" "$@"
