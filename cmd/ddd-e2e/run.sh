#!/usr/bin/env bash
# Builds ddd-e2e from source and runs it with the given flags, from the
# root of a checkout:
#
#   bash cmd/ddd-e2e/run.sh --workload table1_mc --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the
# go command's telemetry counters) stays under .bench_build/ in the
# checkout. The module replaces repro with ../.., so a copy of
# cmd/ddd-e2e without the repository around it fails to build and exits
# nonzero before printing anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

cd "$root/cmd/ddd-e2e"
go build -o "$out/ddd-e2e" .
exec "$out/ddd-e2e" "$@"
