#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cold-estimate --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, toolchain telemetry, the
# binary, spans and result records) stays under .bench_build/ in the
# current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an m3 checkout (go.mod and internal/ not found here)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
