#!/usr/bin/env bash
# Builds the benchmark (this directory, a Go module of its own that
# imports the repository through a replace directive) and cmd/lcpworker
# into .bench_build, then runs the benchmark with the arguments given.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload powerlaw --steady 10
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build: build and module caches, temporary files, generated
# documents and traces.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/lcpworker" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/lcpworker or perfbench/go.mod is missing here" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/cache" "$out/tmp" "$out/run"
export GOCACHE="$out/cache/go-build" GOMODCACHE="$out/cache/mod" GOPATH="$out/cache/gopath" \
	XDG_CONFIG_HOME="$out/cache/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/lcpworker" ./cmd/lcpworker
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --worker "$out/bin/lcpworker" --workdir "$out/run" "$@"
