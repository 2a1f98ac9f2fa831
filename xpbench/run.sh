#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repo root:
#
#   bash xpbench/run.sh --workload xp-websearch --seed 42 --seconds 10 --trace 0
#
# With no --workload it runs every workload, end-to-end (--trace 0) and
# then per-layer (--trace 1), one process each. The binary, the Go build
# cache and the trace scratch files stay under .bench_build.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd xpbench && go build -o "$build/xpbench" .) >&2

case " $* " in
*" --workload "* | *" -workload "* | *"-workload="*)
	exec "$build/xpbench" -tmpdir "$build/tmp" "$@"
	;;
esac
for w in xp-websearch dctcp-websearch xp-shuffle-traced; do
	for t in 0 1; do
		"$build/xpbench" -tmpdir "$build/tmp" -workload "$w" -trace "$t" "$@"
	done
done
