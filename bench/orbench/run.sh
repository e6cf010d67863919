#!/usr/bin/env bash
# Builds orbench and runs it; orbench builds objectrunnerd from the same
# checkout. Run from the repository root:
#
#   bash bench/orbench/run.sh --workload serve_hot --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, temp files,
# the two binaries and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/orbench" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench/orbench" && go build -o "$out/orbench/orbench" .)
exec "$out/orbench/orbench" "$@"
