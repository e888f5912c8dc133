#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload votes-fleet --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, model cache, temporary state
# stores, span files) stays under .bench_build/ in the repository root. The
# first run in a fresh checkout compiles the toolchain's packages and trains
# the model cache; neither is timed.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod or perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export ORIGIN_CACHE="$build/model-cache"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
"$build/perfbench" -prepare
exec "$build/perfbench" -out "$build/trace" "$@"
