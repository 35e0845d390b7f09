#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
# The Go build cache and the binary live in .bench_build at the root, so the
# benchmark writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
exec "$out/perfbench" --commit "$commit" "$@"
