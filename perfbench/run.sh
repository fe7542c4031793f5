#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement:
#
#   bash perfbench/run.sh --workload steady-path --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build and run artefact stays under
# .bench_build/ in the current directory (the Go build cache included), so
# the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
