#!/usr/bin/env bash
# Builds pland, slicebench and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fresh --seed 7 --seconds 24 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span logs all go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pland" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/pland here)" >&2
	exit 1
fi
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/home/go \
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/" ./cmd/pland ./cmd/slicebench
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
