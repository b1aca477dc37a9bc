#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload grid-direct --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch stores and traces all stay
# under the build directory ($CARGO_TARGET_DIR, default .bench_build)
# inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/testdata/golden.json" ]]; then
	echo "perfbench: $root is not a stash checkout (go.mod and testdata/golden.json are needed)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/perfbench"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build
# directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)

cd "$root"
exec "$build/perfbench/perfbench" -out "$build/perfbench" "$@"
