#!/bin/bash
# Builds the benchmark from the checkout it is run in and runs it,
# keeping the go command's caches and temporary files inside that
# checkout (.bench_build/), so a run reads and writes nothing outside it.
#
#   bash bench/run.sh --workload ingest-covar --seed 1 --seconds 15 --trace 0
set -eu
root=$PWD
[ -f "$root/go.mod" ] && [ -d "$root/bench" ] || { echo "bench/run.sh: run from the repository root" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
