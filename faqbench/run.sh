#!/usr/bin/env bash
# Builds the faqbench binary from this directory and runs it with the given
# arguments (--workload, --seed, --seconds, --trace), from the repository
# root.  The build and its cache live under .bench_build/ in the root; the
# binary replaces this shell, so no process is left behind.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal/server ]; then
	echo "faqbench: run from a checkout of the faq repository (no go.mod or internal/server in $PWD)" >&2
	exit 2
fi
build=.bench_build
mkdir -p "$build"
# Everything the Go command writes (build cache, module cache, its config
# and telemetry directories) stays under $build.
export GOCACHE="$PWD/$build/gocache" GOMODCACHE="$PWD/$build/gomodcache"
export GOPATH="$PWD/$build/gopath" XDG_CONFIG_HOME="$PWD/$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd faqbench && go build -o "../$build/faqbench" .)
exec "$build/faqbench" "$@"
