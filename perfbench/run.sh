#!/usr/bin/env bash
# Builds mlb-serve and the perfbench load generator from this checkout,
# then runs the benchmark with the given flags, for example:
#
#   bash perfbench/run.sh --workload sync-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --repeat 10 --seconds 20
#
# Every build product, Go cache and span file stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/mlb-serve" mlbs/cmd/mlb-serve
exec "$out/perfbench" --server "$out/mlb-serve" --out "$out" "$@"
