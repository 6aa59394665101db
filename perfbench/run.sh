#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Arguments pass through, e.g.:
#   bash perfbench/run.sh --workload lubm-http --seed 1 --seconds 20 --trace 0
# Everything it writes (Go build cache, binary, scratch stores, oracle
# cache, reports, spans) goes under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-build"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --workdir "$build" --commit "$commit" "$@"
