#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root, e.g.
#   bash perfbench/run.sh --workload hybrid-hw --seed 1 --seconds 20 --trace 0
# The Go build cache, temporary files and settings stay inside .bench_build/
# as well.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
