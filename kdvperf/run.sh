#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash kdvperf/run.sh --workload viewport --seed 1 --seconds 20 --trace 0
#
# Every build input and output stays inside the checkout: the Go build
# cache, temporary files and the binary go to $CARGO_TARGET_DIR when it is
# set (relative paths are taken from the checkout root), else .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C kdvperf build -o "$build/kdvperf.$$" .
mv -f "$build/kdvperf.$$" "$build/kdvperf"
exec "$build/kdvperf" "$@"
