#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build sfsbench from source
# into .bench_build/ at the root of the checkout and run it from that root
# with the driver's arguments. Everything Go writes — build cache, temporary
# files, the binary — stays inside the checkout, and nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off GOFLAGS=
(cd "$root/cmd/sfsbench" && go build -o "$build/sfsbench" .)
cd "$root"
exec "$build/sfsbench" "$@"
