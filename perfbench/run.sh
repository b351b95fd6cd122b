#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload mux_small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the Go
# tool's own state stay under .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the root of a soapbinq checkout (no go.mod or internal/ here)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
