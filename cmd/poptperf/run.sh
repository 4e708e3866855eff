#!/usr/bin/env bash
# Builds poptperf from source and runs it with the given flags. Run it from
# the repository root:
#
#   bash cmd/poptperf/run.sh --workload headline --seed 42 --seconds 10 --trace 0
#
# The binary, the Go build cache and everything else the build or the run
# writes stay under .bench_build in the working directory. The build fails,
# and so does this script, outside a checkout of the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C cmd/poptperf build -o "$out/poptperf" .
exec "$out/poptperf" "$@"
