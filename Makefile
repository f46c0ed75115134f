# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench bench-all experiments examples smoke serve-demo trace-demo proxy-demo swap-demo store-demo staticcheck stress fuzz clean

# Per-target budget for `make fuzz` (go's -fuzztime syntax).
FUZZTIME ?= 30s

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par/ ./internal/hier/ ./internal/eval/ ./internal/boundary/ ./internal/gpusim/ ./internal/kernels/ ./internal/obs/ ./internal/adaptive/ ./internal/serve/ ./internal/shard/ ./internal/store/ .

# End-to-end smoke of the evaluation server (build, serve, curl, drain).
smoke:
	bash scripts/smoke_serve.sh

# Coalesced vs naive vs client-batch throughput comparison; numbers are
# recorded in EXPERIMENTS.md §"Serving".
serve-demo:
	bash scripts/serve_demo.sh

# Stage-attribution demo: where server-side time goes per request
# (queue_wait vs dispatch vs eval), from /debug/traces and
# sgserve_stage_seconds. Numbers recorded in EXPERIMENTS.md.
trace-demo:
	bash scripts/trace_demo.sh

# Sharded serving end to end with real binaries: 3 sgserve shards
# behind sgproxy, mixed-protocol traffic, one shard hard-killed
# mid-run (failover must hide it), replacement swapped in via an
# epoch-bumped topology POST, recovery asserted.
proxy-demo:
	bash scripts/proxy_demo.sh

# Online refinement end to end with real binaries: an -online sgserve
# behind sgproxy, observations through the write relay, two refine →
# snapshot → hot-swap rounds, monotonic version and snapshot-lifecycle
# assertions.
swap-demo:
	bash scripts/swap_demo.sh

# Tiered snapshot store end to end with real binaries: a blob-tier
# sgserve, six grids published by content address over HTTP, a
# store-backed sgserve with a cache cap smaller than the catalog —
# asserts the miss/hit/eviction counters and zero client errors.
store-demo:
	bash scripts/store_demo.sh

# Race-hunting chaos run of the serving layer: concurrent eval across
# more grids than resident slots, random cancellations, mid-flight
# registry churn, inflated loads, goroutine-leak check. The median
# assertion proves cold loads no longer serialize the hot path.
stress:
	$(GO) run -race ./cmd/sgstress -duration 3s
	$(GO) run -race ./cmd/sgstress -duration 3s -load-delay 25ms -assert-hot-p50 20ms
	$(GO) run -race ./cmd/sgstress -shard-chaos -duration 3s
	$(GO) run -race ./cmd/sgstress -swap-chaos -duration 3s
	$(GO) run -race ./cmd/sgstress -store-chaos -duration 3s

# Optional: requires staticcheck on PATH (honnef.co/go/tools).
staticcheck:
	staticcheck ./...

# Coverage-guided fuzzing of every decoder that eats untrusted bytes:
# the dense v1/v2 readers, the SGC2 snapshot codec, the sparse reader,
# and the format-sniffing LoadAny entry point — plus the kernel
# identity targets: parallel hierarchization and batch evaluation
# (random batch size, workers and block width) against their reference
# kernels, the three eval endpoints against each other, op sequences
# over the grid registry, and the /metrics exposition round trip
# (WritePrometheus → Parse). Each
# target gets $(FUZZTIME); the committed corpus under testdata/fuzz/
# (including the nonzero-padding crasher FuzzSnapshot found) always
# replays in plain `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadGrid$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadSparse$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLoadAny$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParallelHierIdentity$$' -fuzztime $(FUZZTIME) ./internal/hier
	$(GO) test -run '^$$' -fuzz '^FuzzEvalTableIdentity$$' -fuzztime $(FUZZTIME) ./internal/eval
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryFrame$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzEvalEndpointsAgree$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRegistryOps$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzAdaptiveInvariants$$' -fuzztime $(FUZZTIME) ./internal/adaptive
	$(GO) test -run '^$$' -fuzz '^FuzzStoreCacheIndex$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzMetricsRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/serve/metrics

# The four perfbench workloads untraced, one traced run, the
# BenchmarkKernelEval L0 matrix and BenchmarkColdLoad, appended as JSON
# lines to BENCH_trajectory.jsonl (see scripts/bench.sh for the
# BENCHTIME and OUT knobs). BENCH_kernels.json and
# BENCH_coldload.json are frozen history from before the trajectory.
bench:
	bash scripts/bench.sh

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper (scaled defaults;
# see EXPERIMENTS.md for the recorded level-7 run).
experiments:
	$(GO) run ./cmd/sgbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/boundarydemo
	$(GO) run ./examples/uq
	$(GO) run ./examples/finance
	$(GO) run ./examples/explorer
	$(GO) run ./examples/steering

clean:
	$(GO) clean ./...
