#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it from the
# repository root with the given arguments, for example:
#
#   bash perfbench/run.sh --workload cold-spectral --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$root/$out/gocache" GOMODCACHE="$root/$out/gomodcache" \
	GOTMPDIR="$root/$out/tmp" TMPDIR="$root/$out/tmp" XDG_CONFIG_HOME="$root/$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$root/$out/perfbench" .)
exec "$out/perfbench" "$@"
