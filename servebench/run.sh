#!/usr/bin/env bash
# Builds servebench from the checkout it sits in and runs it with the
# given arguments:
#
#   bash servebench/run.sh --workload sc-tcp --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary and Go's build cache go under
# .bench_build/ there, so nothing is written outside the checkout. The
# build needs the program's own module one directory up; without it the
# script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
  GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
