#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout and run it.
#
#   bash bench/run.sh --workload hot_memo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary,
# spill segments — goes under .bench_build/ in the checkout, so the command
# needs no writable home directory and leaves the rest of the tree alone.
# Humans can equally `go run ./bench` (see bench/README.md).
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: this is not a checkout of the repository" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# No module downloads, no toolchain switch, no per-user go env file, and the
# toolchain's own counters (os.UserConfigDir) inside the checkout too.
export GOPROXY=off GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$out/config"

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$out/cbde-bench" ./bench
exec "$out/cbde-bench" -tmp "$out/tmp" "$@"
