#!/usr/bin/env bash
# Builds tunebench from the sources of the checkout it sits in and runs one
# workload with the given arguments. Run it from the repository root:
#
#   bash tunebench/run.sh --workload tune-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files, the binary and span dumps.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/tunebench" && go build -o "$out/tunebench" .)
cd "$root"
exec "$out/tunebench" --work "$out" "$@"
