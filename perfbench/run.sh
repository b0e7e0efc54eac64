#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run it
# from the root of a checkout, e.g.
#
#   bash perfbench/run.sh --workload pretrain --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
