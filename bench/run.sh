#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything it writes (Go's build cache, the binary, WAL
# directories, span files) stays under the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/gstm-bench" .)
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/gstm-bench" -out "$here/out" -commit "$commit" "$@"
