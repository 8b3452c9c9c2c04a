#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload private-16 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary,
# generated inputs) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0 \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
