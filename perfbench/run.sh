#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload kernel-sparse --seed 1 --seconds 12 --trace 0
#
# Run from the root of the repository. Everything the build and the runs
# leave behind (Go build cache, binary, stores, result ledger, spans) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"

exec "$out/perfbench" "$@"
