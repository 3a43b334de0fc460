#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload hotstock-disk --seed 1 --seconds 30 --trace 0
#
# Every build product, cache, toolchain setting and trace file stays under
# .bench_build in the repository root, and the toolchain never reaches
# the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
