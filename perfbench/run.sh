#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mux-inproc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (the binary, the Go
# build cache, unix sockets, span dumps) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"
# Keep the go command's cache, temporary files and telemetry inside the
# checkout, and off the network.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
