#!/bin/sh
# run.sh: build the serving benchmark (servebench/) from source and run it.
# Every argument is passed to the benchmark:
#
#   sh servebench/run.sh --workload edge-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, temp files and the
# benchmark's own outputs (checkpoints, spans, result files) all stay
# under .bench_build/ in the current directory (or $CARGO_TARGET_DIR when
# set), so nothing is written outside the checkout. The Go module and its
# vendored dependencies must be present: in a directory holding only the
# benchmark's own files the script fails before running anything.
set -eu

if [ ! -f go.mod ] || [ ! -d vendor ] || [ ! -f servebench/main.go ]; then
	echo "servebench: run from the repository root (go.mod, vendor/ and servebench/ are needed)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"

# Keep the Go toolchain's caches, temp files and config reads in the
# checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local

go build -o "$build/servebench" ./servebench
exec "$build/servebench" --dir "$build/run" "$@"
