# Targets mirror .github/workflows/ci.yml so local runs and CI are
# identical.

GO ?= go

.PHONY: all build vet fmt fmt-check test race fuzz bench bench-smoke chaos crashtest baseline bench-compare profile serve load

all: build vet fmt-check test

build:
	$(GO) build ./...

# perfbench/ is its own module, so root `go build ./...` never compiles
# it; vetting it catches engine API changes that would break it.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -shuffle=on ./...

# Race-test the concurrent pipeline paths (worker-pool derivation and
# conformation, shared entailment cache, query engine).
race:
	$(GO) test -race ./internal/core/... ./internal/logic/... ./internal/view/... ./internal/wire/...
	$(GO) test -race -run Federation .

# Fixed-seed fault-injection suite under the race detector: the chaos
# wrapper's own contract, the engine differentials (post-reconcile state
# byte-identical to a fault-free run) and the wire-level degraded-serving
# tests.
chaos:
	$(GO) test -race -count=1 ./internal/store/chaos/
	$(GO) test -race -count=1 -run 'Chaos|Breaker|PartialCommit|LateRejection|FailAfterCommit' ./internal/view/
	$(GO) test -race -count=1 -run 'Health|Wire|BackgroundReconciler' ./internal/server/
	$(GO) test -race -count=1 -run 'CrashRecovery' .

# Crash-safety suite: WAL scan/replay/truncation contracts, checkpoint
# round trips, kill-and-recover differentials (recovered state
# byte-identical to the acknowledged prefix, warm starts serving plan
# hits with zero solver work) — including under injected disk faults —
# and the wire-level durable-tenant lifecycle.
crashtest:
	$(GO) test -race -count=1 -run 'WAL|Checkpoint|Durable|Replay' ./internal/store/
	$(GO) test -race -count=1 -run 'Durability|WarmStart|CrashRecovery' .
	$(GO) test -race -count=1 -run 'Durable' ./internal/server/

# Short-budget native fuzzing of the query parser, the wire codec, the
# WAL decoder and the checkpoint decoder, as in CI. Finds are written
# to testdata/fuzz — commit them.
fuzz:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=20s -run='^$$' ./internal/view/
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=20s -run='^$$' ./internal/server/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=20s -run='^$$' ./internal/store/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=20s -run='^$$' ./internal/store/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=20s -run='^$$' ./internal/wire/

# Full benchmark run (slow).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One-iteration smoke of the full-pipeline, serving and mutation
# benchmarks, as in CI.
bench-smoke:
	$(GO) test -bench=E11 -benchtime=1x -run='^$$' .
	$(GO) test -bench=Serve -benchtime=1x -run='^$$' .
	$(GO) test -bench=B8 -benchtime=1x -run='^$$' .
	$(GO) test -bench=B10 -benchtime=1x -run='^$$' .

# Regenerate the machine-readable benchmark baseline for this PR:
# three full runs min-merged per timing metric, so a scheduler or GC
# stall landing in one run's measurement window (the dominant noise on
# a single-core host, especially for one-shot cold timings) cannot
# poison the committed baseline.
baseline:
	$(GO) run ./cmd/interopbench -quick -json BENCH_10.r1.json
	$(GO) run ./cmd/interopbench -quick -json BENCH_10.r2.json
	$(GO) run ./cmd/interopbench -quick -json BENCH_10.r3.json
	$(GO) run ./cmd/benchcompare -merge BENCH_10.json BENCH_10.r1.json BENCH_10.r2.json BENCH_10.r3.json
	rm -f BENCH_10.r1.json BENCH_10.r2.json BENCH_10.r3.json

# Diff the current baseline against the previous PR's and GATE: shared
# timing metrics regressing beyond -max-regress fail (sub-10µs rows are
# noise-floored; E-series pass→fail drift always fails).
bench-compare:
	$(GO) run ./cmd/benchcompare -max-regress 100 BENCH_9.json BENCH_10.json

# Serve the federation: figure1 + personnel tenants, HTTP on :7070 and
# the binary framed transport on :7071, with /metrics and pprof.
# Ctrl-C drains gracefully.
serve:
	$(GO) run ./cmd/interopd -addr :7070 -wire-addr :7071

# Drive a running `make serve` with the B11 wire workload over both
# transports.
load:
	$(GO) run ./cmd/interopbench -only b11 -serve-url http://localhost:7070 -wire-addr localhost:7071

# CPU/heap profiles of the full benchmark suite, so perf work starts
# from a flame graph instead of a guess:
#   make profile
#   go tool pprof -http=:8080 cpu.pprof
profile:
	$(GO) run ./cmd/interopbench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"
