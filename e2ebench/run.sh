#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sparse_tcp --seed 1 --seconds 40 --trace 0
#
# Every build artefact, cache and output stays under .bench_build/ in
# the checkout (CARGO_TARGET_DIR, when set, names that directory).
set -euo pipefail

if [[ ! -f go.mod || ! -d distq || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, distq/ and e2ebench/ must be present)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd e2ebench && go build -o "$out/e2ebench-bin" .) >&2
exec "$out/e2ebench-bin" -out "$out/e2ebench" "$@"
