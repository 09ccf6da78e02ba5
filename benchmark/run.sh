#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash benchmark/run.sh --workload cold-start --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build and module caches) stays
# under .bench_build/ at the checkout root, and the build never touches the
# network. Without the repository's Go sources next to benchmark/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$bench_dir" && go build -o "$out/deepplan-benchmark" .)
exec "$out/deepplan-benchmark" "$@"
