#!/usr/bin/env bash
# Builds beerbench from this checkout's sources into .bench_build/ and runs
# it with the given arguments from the checkout root, e.g.
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 35 --trace 0
# The Go build cache and temporary files stay inside .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/beerbench" ./beerbench)
cd "$root"
exec "$build/beerbench" "$@"
