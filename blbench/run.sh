#!/usr/bin/env bash
# Builds the benchmark and the blserve binary it serves with from the
# checkout it is run in, then runs the benchmark with the given arguments:
#
#   bash blbench/run.sh --workload serve-check --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and the
# compiler's temporary files stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/blserve" || ! -f "$root/blbench/go.mod" ]]; then
	echo "blbench: run from the repository root (needs go.mod, cmd/blserve and blbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/blserve" ./cmd/blserve
(cd "$root/blbench" && go build -o "$build/bin/blbench" .)
exec "$build/bin/blbench" -blserve "$build/bin/blserve" "$@"
