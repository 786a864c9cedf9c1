#!/usr/bin/env bash
# Builds the benchmark and lightator-serve from this checkout's sources,
# then runs one workload:
#
#   bash lightbench/run.sh --workload serve-process --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root of
# the checkout. The build fails, and no result is printed, when the
# lightator sources are not beside this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(
	cd "$here"
	go build -o "$out/lightbench" .
	go build -o "$out/lightator-serve" lightator/cmd/lightator-serve
)
exec "$out/lightbench" -serve-bin "$out/lightator-serve" -out "$out/out" "$@"
