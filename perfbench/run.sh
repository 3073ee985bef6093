#!/usr/bin/env bash
# Builds the live-runtime benchmark from source and runs it with the given
# arguments. Every file the build writes (compiler cache, temporary files,
# binary) stays in .bench_build at the repository root, so the run touches
# nothing outside the checkout. Outside a full checkout the build fails,
# and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
