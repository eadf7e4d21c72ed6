#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash _perfbench/run.sh --workload lookup-2k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temp files, binary) goes
# under .bench_build/ at the checkout root, and the toolchain is kept
# local and offline. Without the simulator sources next to this
# directory the build fails and the script exits non-zero before the
# benchmark prints anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
