#!/usr/bin/env bash
# Builds the itsbed benchmark from source and runs it with the given
# flags, e.g. `bash bench/run.sh -workload table2 -seed 7`.
#
# All build state (Go build cache, scratch space, GOPATH, go command
# config) lives in .bench_build next to bench/, so a run reads and
# writes nothing outside the checkout, and later runs reuse the build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/itsbench" .)
exec "$out/itsbench" "$@"
