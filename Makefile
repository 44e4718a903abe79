GO ?= go

.PHONY: check fmt build vet lint test test-short race bench bench-smoke load-smoke obs-smoke fuzz-smoke scale-smoke transport-smoke perfbench-check

check: fmt build vet lint test perfbench-check fuzz-smoke scale-smoke

# fmt fails on any file gofmt would rewrite, listing them. The globs
# skip dot-directories, so the benchmark's build cache is not scanned.
fmt:
	@out=$$(gofmt -l *.go */); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own static-analysis suite (internal/lint via
# cmd/lcplint): lockheld, poolput, ctxflow, errignored, doccomment — each
# pins an invariant one of the historical concurrency/API bugs violated
# (see docs/ARCHITECTURE.md, "Static-analysis layer"). It complements
# `go vet`, it does not replace it. TestLintCleanRepo asserts the same
# zero-diagnostics property from inside the test suite.
lint:
	$(GO) run ./cmd/lcplint $$($(GO) list -f '{{.Dir}}' ./...)

test:
	$(GO) test ./...

# perfbench-check vets and tests the benchmark's nested module, which
# the root `go test ./...` skips. It compiles against the library's
# internal API (remote.Options, dist.Options, engine and core entry
# points), so an API change that breaks the benchmark's build fails
# here, not in the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run=NONE -bench='BenchmarkAblationViewConstruction|BenchmarkDistributedRuntime|BenchmarkEngineAmortized|BenchmarkEngineBatchColumns|BenchmarkViewWalk' -benchmem .
	$(GO) test -run=NONE -bench=. -benchmem ./internal/dist/
	$(GO) test -run=NONE -bench=. -benchmem ./internal/partition/
	$(GO) test -run=NONE -bench=. -benchmem ./internal/serve/

# bench-smoke runs every benchmark exactly once — including the shard
# layout benches (BenchmarkSchedulerSharded, the message-passing-
# sharded ablation) and the partition-quality benches
# (BenchmarkPartitioners, whose cut-edge metrics feed
# BENCH_partition.json) — so CI catches benches that no longer compile
# or fail their own assertions, without paying for a real measurement.
# It then regenerates Table 1 at two sizes on the sequential and
# message-passing runtimes; lcpbench exits 1 on any ERR, REJ or DREJ
# cell.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/lcpbench -sizes 16,32 -verify-distributed

# load-smoke fires a short burst of real HTTP traffic at an in-process
# lcpserve (cmd/lcpload with no -url): a few seconds of /check and
# /check/batch at modest concurrency, one run per backend and
# partitioner. It exists to catch a service stack that no longer
# survives concurrent load, not to measure — `lcpload -duration 10s
# -concurrency 16` against a real daemon does that. lcpload exits
# non-zero on any failed request, and also on a /metrics exposition
# that fails to parse or a counter that moved backwards between its
# scrapes before and after the window, so each run is the
# observability check for its configuration too.
load-smoke:
	$(GO) run ./cmd/lcpload -duration 2s -concurrency 4 -nodes 64 -batch 8
	$(GO) run ./cmd/lcpload -duration 2s -concurrency 4 -nodes 64 -batch 8 -backend dist
	$(GO) run ./cmd/lcpload -duration 2s -concurrency 4 -nodes 64 -batch 8 -backend dist -partitioner bfs

# fuzz-smoke runs every native fuzz target for a short budget (one
# target per invocation — the go tool's rule). The seed corpora under
# testdata/fuzz/ run as plain tests in `make test` already; this step
# buys a little fresh exploration on every check, so a parser panic or
# a columns/core divergence surfaces in CI, not in production traffic.
# The transport and remote targets fuzz what parses bytes from other
# processes: the frame and hello readers every accepted connection runs
# first, data frames, packed check frames, and the records a worker is
# registered with, through to a wired shard. The serve target fuzzes
# the request bodies of /check and /check/batch against the decoder the
# one-pass proof scan replaced.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzTextioRoundTrip -fuzztime=10s ./internal/textio/
	$(GO) test -run=NONE -fuzz=FuzzReaderMatchesBitwise -fuzztime=10s ./internal/bitstr/
	$(GO) test -run=NONE -fuzz=FuzzBatchColumnsEquivalence -fuzztime=10s ./internal/engine/
	$(GO) test -run=NONE -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzReadHello -fuzztime=10s ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzDecodeData -fuzztime=10s ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzCheckFrame -fuzztime=10s ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzRegisterShard -fuzztime=10s ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzCheckRequest -fuzztime=10s ./internal/serve/

# scale-smoke runs the benchmark's power-law workload for one second
# (perfbench/run.sh; see perfbench/main.go): an n=10^5 power-law
# instance written as textio, parsed, proved and checked on the core,
# engine and dist backends, each in its own process, plus the serve and
# fleet phases, so "the hot paths hold up at scale" is re-proved on
# every check. perfbench exits 1 on any wrong verdict; an operation that
# errored shows as a non-zero "failed" on its last line of output, and
# that fails the target too, as does a run that attempted nothing. BENCH_sweep.json keeps the recorded n=10^5-10^6
# grid as history.
scale-smoke:
	@out=$$(bash perfbench/run.sh --workload powerlaw --seed 1 --seconds 1) || exit 1; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -Eq '^\{"correct":true,"attempted":[1-9][0-9]*,"failed":0,' || \
		{ echo "scale-smoke: no operations, or some failed" >&2; exit 1; }

# transport-smoke is the multi-process scale-out check: cmd/lcpfleet
# spawns two cmd/lcpworker subprocesses (the binary beside its own, so
# both are built into bin/), registers every catalog scheme's instance
# over the dist-tcp control plane, floods the shards over actual TCP
# sockets, asserts verdict equality with the sequential reference, and
# SIGTERMs the fleet insisting on clean exits.
transport-smoke:
	$(GO) build -o bin/lcpfleet ./cmd/lcpfleet
	$(GO) build -o bin/lcpworker ./cmd/lcpworker
	./bin/lcpfleet -workers 2

# obs-smoke runs the package-level tests of the observability
# contract: trace-ID propagation, request logging and Prometheus
# exposition well-formedness. The scrape-and-diff of /metrics under
# load runs in every load-smoke lcpload run.
obs-smoke:
	$(GO) test -run 'TestServeTrace|TestServeMetrics|TestServeRequestLogging' ./internal/serve/
	$(GO) test -run 'TestWriteProm|TestTrace' ./internal/obs/
