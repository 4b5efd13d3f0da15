#!/usr/bin/env bash
# Builds the AutoMon benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload kld-wan --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh -compare <dir-a> <dir-b>
#
# Everything the build and the run leave behind goes to .bench_build/ in the
# current directory: the Go build cache, the binary, run records and traces.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# The toolchain's caches, temporary files and local telemetry stay in $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS= GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
