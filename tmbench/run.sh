#!/usr/bin/env bash
# Builds tmbench from the repository's sources into .bench_build/ at the
# repository root and runs it with the given arguments, e.g.
#
#   bash tmbench/run.sh --workload bank-small --seed 3 --seconds 10 --trace 0
#
# Every build and run file stays under the repository root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -buildvcs=false -o "$out/tmbench" . >&2
sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
TMBENCH_GIT_SHA=$sha exec "$out/tmbench" --spans "$out/spans.tsv" "$@"
