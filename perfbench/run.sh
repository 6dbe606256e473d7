#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload hit-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, tool config) and everything the benchmark
# writes (the binary, temporary result caches, span files, CPU profiles)
# stays under .bench_build/ in the current directory. Without the
# simulator's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; the simulator sources are missing" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build/pprof"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C "$root/perfbench" -trimpath -o "$build/bin/perfbench" .
PERFBENCH_GO=$(command -v go) exec "$build/bin/perfbench" "$@"
