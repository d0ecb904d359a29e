#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the go tool
# writes stays inside the checkout: the build cache lives under
# .bench_build/ too, so a fresh checkout compiles once (the first run) and
# later runs only check that the binary is current.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=auto
(cd "$here" && go build -o "$build/pnmcs-bench" .)
cd "$root"
exec "$build/pnmcs-bench" "$@"
