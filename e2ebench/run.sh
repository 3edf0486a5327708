#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits
# in and runs it; every argument is passed through, e.g.
#
#   bash e2ebench/run.sh --workload handshake --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch all stay under
# <checkout>/.bench_build. Without the parent module next to it the build
# fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --workdir "$out" "$@"
