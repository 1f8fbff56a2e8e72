#!/usr/bin/env bash
# Builds the cuisinevol CLI and the benchmark harness from the sources in
# the current checkout, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build product and cache
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cuisinevol" ]; then
	echo "perfbench: run from the repository root; go.mod and cmd/cuisinevol are missing here" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
# The go command starts a detached telemetry process, which can outlive
# this script, unless telemetry is off in its (here fresh) config dir.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/cuisinevol" ./cmd/cuisinevol
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -bin "$build/cuisinevol" -out "$build/perfbench-out" "$@"
