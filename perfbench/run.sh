#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig8-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build artifact (binary, Go
# build cache) goes under .bench_build/ there; nothing is fetched.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
