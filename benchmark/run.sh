#!/usr/bin/env bash
# Builds hyrised and the benchmark driver from this checkout into
# .bench_build/ and runs the driver with the given arguments.  The Go
# build cache, module cache, temporary files and the toolchain's own
# config directory all live under .bench_build/, so nothing is read from
# or written to any place outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/hyrised ]; then
	echo "benchmark/run.sh: no hyrise module in $PWD: nothing to measure" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
# With a fresh config directory the go command would start its telemetry
# sidecar, a detached process that outlives the build; mode "off" (what
# `go telemetry off` writes) keeps every go invocation childless.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/hyrised" ./cmd/hyrised
go -C benchmark build -o "$build/bin/hyrisebench" .
exec "$build/bin/hyrisebench" -dir "$build" "$@"
