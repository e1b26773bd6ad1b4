#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it
# from the checkout root. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload fig2 --seed 1 --seconds 26 --trace 0
#
# Build outputs, the Go caches and run scratch files all stay under
# .bench_build/ in the checkout. Without the module's sources
# next to perfbench/ the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep every file the go command writes (build cache, module cache,
# telemetry counters) inside the checkout.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOPATH="$out/gopath"
export GOCACHE="$out/gocache"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
