#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it with the
# given arguments, e.g.
#
#   bash pallasbench/run.sh --workload corpus-scan --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# trace spans) goes under .bench_build/ at the checkout root. The build is
# offline: no module is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C pallasbench build -o "$out/pallasbench" .
exec "$out/pallasbench" "$@"
