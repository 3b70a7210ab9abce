#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#	bash perfbench/run.sh --workload serve-heap --seed 1 --seconds 16 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, cached
# inputs, results, spans) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out"
# The go command's own config and telemetry counters live under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

# The result records the commit when the checkout is a git work tree
# (git is not asked to look above it).
if [ -z "${POL_COMMIT:-}" ]; then
	POL_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export POL_COMMIT
fi

if ! (cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" -root "$root" "$@"
