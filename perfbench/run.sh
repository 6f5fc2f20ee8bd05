#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload join --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, page files and artifacts.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/gopath"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/gotmp" GOPATH="${build}/gopath"
export GOTOOLCHAIN=local GOFLAGS=
bin="${build}/perfbench-bin"
(cd "${root}/perfbench" && go build -o "${bin}" .)
exec "${bin}" "$@"
