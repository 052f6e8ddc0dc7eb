#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and
# runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload fanout-100k --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ and .bench_out/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command also keeps its settings and telemetry under the user's
# config directory; point that into the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
