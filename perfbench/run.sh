#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mixed-solo --seed 3 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the binary, the Go build cache and the data directories.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off PPROF_TMPDIR="$out/tmp"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
