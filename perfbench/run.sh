#!/usr/bin/env bash
# Builds examserver (from this checkout's cmd/examserver), tracedserver and
# the perfbench load generator into .bench_build/bin, then runs one workload:
#
#   bash perfbench/run.sh --workload fixed-live --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# .bench_build: the Go build cache, its temporary files, and the go command's
# user config (telemetry counters) all point there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/" mineassess/cmd/examserver ./tracedserver .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
