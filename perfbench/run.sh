#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload epoch-contended --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache and
# temporary files, the benchmark binary, per-round LSM directories and
# trace files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" --build-dir "$build" "$@"
