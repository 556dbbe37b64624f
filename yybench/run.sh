#!/usr/bin/env bash
# Builds the benchmark, its reference program and the fakesolver fixture
# from source, then runs one workload. Run from the repository root:
#
#   bash yybench/run.sh --workload arith --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# root, so the go build cache lives inside the checkout too; the first
# run in a fresh checkout compiles the standard library into it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

go build -C "$root/yybench" -o "$out/yybench" .
go build -C "$root/yybench" -o "$out/refspeed" ./refspeed
go build -o "$out/fakesolver" ./internal/backend/fakesolver

exec "$out/yybench" --fakesolver "$out/fakesolver" --refspeed "$out/refspeed" --workdir "$out" "$@"
