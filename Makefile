GO ?= go

.PHONY: check fmt vet sgvet lint build test test-race benchmark-check bench-smoke fuzz-smoke serve-smoke explore-smoke leak-smoke cluster-smoke

# The full gate: what CI (and every PR) must pass.
check: fmt vet sgvet build test test-race benchmark-check lint bench-smoke fuzz-smoke serve-smoke explore-smoke leak-smoke cluster-smoke

# Every committed Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

vet:
	$(GO) vet ./...

# Repo-local Go source checks (internal/analysis/govet): stock go vet
# knows nothing about this repository's IR invariants.
sgvet:
	$(GO) run ./cmd/sgvet

# Static legality lint of the example programs. Examples are
# documentation, so warnings are errors here.
lint:
	$(GO) run ./cmd/sglint -werror examples/asm/*.s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-heavy packages: the serve
# layer (coalescing, drain, backpressure) and the bench caches and
# machine pool it is built on (TestConcurrentCallsDrainOwnMachines:
# concurrent calls of one program each drain their own machine) — plus
# the batch golden tests (many lanes over one shared decode window),
# the lane scheduler's tests (RunDrains, including
# TestRunDrainsReleasesLanes: every lane a call builds goes back to the
# free list whether it completes, fails or is cancelled; the
# fuzz oracle with its two-drain batch split) and the free lists of
# decode windows and lanes shared by concurrent Runs and drains
# (bounds, recycled lanes matching new ones, concurrent release and
# New), pinning lane isolation across workers under -race, and
# machines running concurrently from one shared input image.
# The bench suite runs full timing simulations, which the detector
# slows ~20×; heavy sweep tests shed redundant work under -race (see
# bench/race_on_test.go) and the explicit -timeout gives slow
# single-core machines headroom past the 600s default.
test-race:
	$(GO) test -race -timeout 900s ./internal/serve/... ./internal/bench/... ./internal/cluster/... ./internal/load/...
	$(GO) test -race -run 'TestBatchMatchesSingle|TestGoldenStatsBatched|TestRunDrains|TestWindowMemLastBounded|TestFreeListsBounded|TestFreeListConcurrentReleaseAndNew|TestNewReusesReleasedLane|TestRecycledLanesMatchFresh|TestOneLaneBatchPrivateICache' ./internal/pipeline ./internal/bench
	$(GO) test -race -run 'TestImageConcurrentMachines' ./internal/interp
	$(GO) test -race -run 'TestFuzzSmoke' ./internal/fuzz
	$(GO) test -race -run 'TestRunIndependentOfParallelism' ./internal/explore

# The benchmark (benchmark/, run by benchmark/run.sh) is its own Go
# module whose go.mod replaces this repository, so the root vet, build
# and test skip it: vet and test it here, so a change to an API it calls
# fails the gate instead of the next benchmark run.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# One iteration of each performance benchmark — catches benchmark rot
# without paying for a full measurement run — plus a fixed-seed sweep of
# the front-end agreement oracle (interp vs. predecode vs. trace
# replay), and a check that sgsim's CPU profile covers the timing core
# the benchmark times (sgsim simulates through bench.Runner).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPipe|BenchmarkPipeReplay|BenchmarkBatchPipe' -benchtime 1x ./internal/pipeline
	$(GO) test -run '^$$' -bench BenchmarkInterpStep -benchtime 1x ./internal/interp
	$(GO) test -run '^$$' -bench BenchmarkTraceReplay -benchtime 1x ./internal/trace
	$(GO) test -run '^$$' -bench BenchmarkProfileAnalyze -benchtime 1x ./internal/profile
	$(GO) run ./cmd/sgfuzz -frontend -seeds 25
	# Quiescence fast-forward engagement: a latency-bound workload must
	# report SkippedCycles > 0 with Stats unchanged (asserted in-test).
	$(GO) test -run 'TestSkipLongLatencyFP' -count 1 ./internal/pipeline
	prof=$$(mktemp); \
	$(GO) run ./cmd/sgsim -w grep -scheme proposed -cpuprofile $$prof >/dev/null && \
	$(GO) tool pprof -top -cum $$prof 2>/dev/null | grep -qF 'pipeline.(*Pipeline).Run'; \
	ok=$$?; rm -f $$prof; \
	if [ $$ok -ne 0 ]; then echo "bench-smoke: sgsim's CPU profile does not list pipeline.(*Pipeline).Run" >&2; exit 1; fi

# A bounded sweep of the differential fuzzer (internal/fuzz): every
# seed must pass the interp/pipeline/xform agreement oracle (which now
# includes the batch lane-isolation and leak-soundness stages),
# plus focused sweeps of the batch and leak oracles alone on disjoint
# seed ranges, and ten seconds each of native fuzzing of the service's
# request normalization (bounded inputs, typed rejections, stable
# keys), its /v1/run wire decoding (POST bodies and GET queries, typed
# rejections) and its /v1/explore grid decoding (accepted grids expand
# within max_points to Validate-clean models). Seconds, not minutes;
# `sgfuzz -seeds 500` (or more) is the deep version.
fuzz-smoke:
	$(GO) run ./cmd/sgfuzz -seeds 50
	$(GO) run ./cmd/sgfuzz -batch -start 1000 -seeds 50
	$(GO) run ./cmd/sgfuzz -leak -start 3000 -seeds 100
	$(GO) run ./cmd/sgfuzz -skip -start 5000 -seeds 50
	$(GO) test -run '^$$' -fuzz '^FuzzNormalizeRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseRunRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseExploreRequest$$' -fuzztime 10s ./internal/serve

# End-to-end smoke of the experiment daemon: coalescing, graceful
# drain under SIGTERM, and post-restart store-hit replay, all asserted
# via /metrics.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the design-space sweep engine: a tiny grid
# through /v1/explore (NDJSON points + report, non-empty Pareto
# frontier, trace_drains < cells) and through the sgsweep CLI, plus
# per-request machine models on /v1/run.
explore-smoke:
	./scripts/explore_smoke.sh

# End-to-end smoke of the speculative-leak analysis: the sglint taint
# rules and -leak-error contract, the sgbench -leaks dynamic/static
# ablation (victim leaks, guarded victim doesn't, static covers), and
# a bounded sgfuzz -leak soundness sweep.
leak-smoke:
	./scripts/leak_smoke.sh

# End-to-end smoke of the sharded cluster: 3 sgserved behind sgcoord,
# asserting stable shard placement across a coordinator restart,
# cluster-wide singleflight (one architectural run for an identical
# concurrent pair), a zero-error mixed sgload burst against both a
# single backend and the cluster (written to BENCH_serve.json), and
# graceful re-routing after a backend is killed.
cluster-smoke:
	./scripts/cluster_smoke.sh
