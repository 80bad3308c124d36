#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and
# runs it with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's scratch files stay under .bench_build in the working
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go tool keeps its settings and telemetry under the user config
# directory; pointing that at the build directory keeps them there too.
export GOCACHE="$build/gocache" GOTMPDIR="$build" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
