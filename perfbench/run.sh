#!/usr/bin/env bash
# Builds swserve and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-behavioral --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache and the per-run scratch files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/swserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run from the repository root (need go.mod, cmd/swserve and perfbench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/bin/swserve" ./cmd/swserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

commit=unknown
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/bin/perfbench" -root "$root" -swserve "$build/bin/swserve" -commit "$commit" "$@"
