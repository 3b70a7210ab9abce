# Standard checks for this repository. `make check` is what CI should run.

GO ?= go

.PHONY: check build test vet fmt race benchsmoke fuzz bench e2e

check: fmt vet build test race benchsmoke fuzz e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short race pass over the packages with real concurrency: the distributed
# build cluster, the dataflow engine, the live ingestion engine, the
# snapshot-serving inventory, the observability middleware and tracer, the
# replica client, the parallel segment writer, the shared-sketch encoders
# and the stream monitor.
race:
	$(GO) test -race -count=1 -timeout 20m ./internal/cluster/ ./internal/dataflow/ ./internal/ingest/ ./internal/inventory/ ./internal/obs/ ./internal/obs/trace/ ./internal/replica/ ./internal/segment/ ./internal/stats/ ./internal/stream/

# One-iteration smokes: the snapshot-publish benchmark and the columnar
# segment write/open/lookup round trip — they catch serving-path
# regressions that compile but break at run time, without benchmark noise.
benchsmoke:
	$(GO) test -run='^$$' -bench=Publish -benchtime=1x ./internal/inventory/
	$(GO) test -run='^$$' -bench=Segment -benchtime=1x ./internal/segment/

# Short fuzz passes over the decoders that read persisted or fetched bytes:
# checkpoint manifest lines and whole-segment loads.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseManifestLine$$' -fuzztime=10s ./internal/ingest/
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentLoad$$' -fuzztime=10s ./internal/segment/

# End-to-end smokes: the loopback cluster (coordinator + two workers, one
# killed mid-task), the durability chaos drill (crash mid-checkpoint
# rename, permanently failing journal disk, recovery convergence), the
# replicated-serving drill (primary + two read replicas, one killed and
# re-bootstrapped mid-feed, bit-exact convergence), and the failover drill
# (primary killed mid-feed, replica promoted with epoch fencing, stale
# primary fenced on restart).
e2e:
	./scripts/cluster_e2e.sh
	./scripts/chaos_e2e.sh
	./scripts/replica_e2e.sh
	./scripts/failover_e2e.sh

# Full benchmark suite: regenerates BENCH_PR10.json and prints the headline
# publish/shuffle/distributed benchmarks (see scripts/bench.sh).
bench:
	./scripts/bench.sh
