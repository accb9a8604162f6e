#!/usr/bin/env bash
# Builds the flashsim benchmark from source and runs it. Run it from the
# root of a flashsim checkout:
#
#   bash flashbench/run.sh --workload mp3d --seed 1 --seconds 20 --trace 0
#   bash flashbench/run.sh all --seconds 20    # every workload, one process each
#
# The binary, the Go build cache and Go's temporary files go under
# .bench_build/ in the checkout. A failed build exits non-zero without
# printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C flashbench build -o "$out/flashbench" .

if [[ "${1:-}" == all ]]; then
	shift
	for w in mp3d lu radix-sharded barnes-sampled; do
		"$out/flashbench" --workload "$w" "$@"
	done
	exit 0
fi
exec "$out/flashbench" "$@"
