#!/usr/bin/env bash
# Builds the perfbench harness from source and runs one workload with it.
# Run from the root of a coordcharge checkout:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, run outputs and span dumps.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/reproduce" || ! -d "$root/cmd/coordd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a coordcharge checkout (go.mod, cmd/ and perfbench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$build/bin"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
