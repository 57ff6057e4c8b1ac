#!/usr/bin/env bash
# Builds the ftnet benchmark from the sources of the checkout it runs in,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload survival|churn|serve --seed N --seconds S --trace 0|1
#
# The build cache, the binary, the Go home directories and the span files
# all live under $CARGO_TARGET_DIR (default .bench_build), so the build and
# the run write nothing outside the checkout. The build needs no network:
# the benchmark module has no dependency besides the ftnet module beside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
