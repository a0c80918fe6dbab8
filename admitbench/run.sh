#!/usr/bin/env bash
# Builds the durable-admission benchmark from the checkout's sources and
# runs it. Run from the repository root:
#
#   bash admitbench/run.sh --workload churn-small --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, write-ahead logs)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$src" && go build -o "$out/admitbench" .) >&2
exec "$out/admitbench" --workdir "$out" "$@"
