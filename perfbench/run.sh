#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload keyed-wire-ckpt --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) and .perfbench-out.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
