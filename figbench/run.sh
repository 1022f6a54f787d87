#!/usr/bin/env bash
# Builds the figure-regeneration benchmark from source and runs it.
#
#   bash figbench/run.sh --workload fault-sweep --seed 1 --seconds 20 --trace 0
#   bash figbench/run.sh compare base.jsonl change.jsonl
#
# Run from the repository root. Every build product (binary, Go build cache,
# temporary files) goes under $CARGO_TARGET_DIR (default .bench_build), so
# the benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/xdg"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/xdg GOENV=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/figbench" .)
exec "$out/figbench" --out "$out" "$@"
