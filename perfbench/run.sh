#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it from the
# repository root. Every build artifact, cache and data file stays
# under .bench_build/ in the checkout.
#
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

PERFBENCH_GIT_SHA=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_GIT_SHA
cd "$root"
exec "$build/perfbench" "$@"
