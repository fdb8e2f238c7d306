#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tcas-sweep --seed 2008 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"

# Go keeps its cache, module path, temporary files and telemetry counters
# under the checkout; user-level go env settings are ignored.
export XDG_CONFIG_HOME="${build}/config"
export GOENV=off
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "${here}" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --out "${build}" "$@"
