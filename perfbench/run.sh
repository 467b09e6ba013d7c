#!/usr/bin/env bash
# Builds the benchmark and the bgpsimd daemon from the checkout's
# source, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build output, the Go
# build cache included, stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/bgpsimd" bgpsim/cmd/bgpsimd)
exec "$out/perfbench" -root "$root" -bgpsimd "$out/bgpsimd" "$@"
