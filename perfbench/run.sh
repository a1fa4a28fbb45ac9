#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload wire-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under the
# build directory inside the checkout: $CARGO_TARGET_DIR when set,
# .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed; run from the root of a full checkout" >&2
	exit 2
fi
exec "$build/perfbench" --dir "$build/perfbench-data" --trace-out "$build/perfbench-trace" "$@"
