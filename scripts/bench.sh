#!/bin/sh
# Benchmark suite — regenerates the committed machine-readable benchmark
# results and prints the headline go-test benchmarks. Run from the
# repository root:
#
#   ./scripts/bench.sh            # writes BENCH_PR10.json
#   ./scripts/bench.sh results.json
#
# The report has two parts: the polbench micro-benchmark suite (build,
# publish, queries, shuffle, distributed build, replica catch-up, tracing
# overhead, segment cold-start and resident-set footprints) and an
# open-loop polload SLO run against a polserve snapshot, merged in under
# the "slo" key.
set -e

out="${1:-BENCH_PR10.json}"

echo "== polbench micro-benchmark suite → $out =="
go run ./cmd/polbench -json "$out" -vessels 30 -days 15

echo "== polload SLO run (open-loop against polserve) → $out =="
tmp="$(mktemp -d)"
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null
	rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp" ./cmd/polbuild ./cmd/polserve ./cmd/polload
"$tmp/polbuild" -synthetic -vessels 30 -days 15 -out "$tmp/fleet.polseg"
addr="127.0.0.1:$((18600 + $$ % 100))"
"$tmp/polserve" -inv "$tmp/fleet.polseg" -addr "$addr" >"$tmp/serve.log" 2>&1 &
pid=$!
sleep 0.5
"$tmp/polload" -targets "http://$addr" -rate 300 -duration 10s -seed 1 \
	-merge-bench "$out"

echo "== headline benchmarks (publish COW vs clone, shuffle allocs) =="
go test -run='^$' -bench='PublishLargeInventory|PublishDelta|ShuffleAllocs' -benchmem ./... 2>&1 | grep -E 'Benchmark|^ok|^PASS'
