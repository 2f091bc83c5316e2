#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary, generated
# inputs and span files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config" "$out/bin"
# Keep every file the go command writes (build cache, module cache, its
# telemetry counters under the user config directory) inside the checkout,
# and never fetch a toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# The benchmark module replaces nwhy with the checkout root, so a checkout
# without the library fails here, before any result is printed.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; run from the repository root" >&2
	exit 1
fi
go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
