#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload check-dpor-n3 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the benchmark's scratch datasets live under .bench_build/, so nothing
# outside the checkout is written.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --workdir "$out/tmp" "$@"
