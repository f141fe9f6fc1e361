#!/usr/bin/env bash
# Builds the p2pbound benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   bash p2pbench/run.sh --workload campus --seed 1 --seconds 20 --trace 0
#   bash p2pbench/run.sh compare base.out changed.out
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$bench" build -o "$out/p2pbench" .
exec "$out/p2pbench" "$@"
