GO ?= go

# Tier-1 gate: everything a PR must keep green.
.PHONY: check
check: vet fmt-check lint waiver-check build cross test fma-off race

.PHONY: vet
vet:
	$(GO) vet ./...

# Project static analysis (cmd/glint): determinism, rawgo, cfgdefault,
# floateq, errdrop, ctxflow, leakcheck, lockcheck, and allocpath over
# every package in the module. Stdlib-only — see DESIGN.md §8/§12 for the
# rules and the //glint:ignore policy.
.PHONY: lint
lint:
	$(GO) run ./cmd/glint

# Waiver budget: the //glint:ignore count may not grow without an explicit
# budget bump in .glint-waivers (which is where the reviewer sees it).
# The pattern requires the mandatory " -- reason" separator, so prose
# mentions of the directive in docs don't count; the literal placeholder
# "rule" (not a real rule name) is the documented example form.
WAIVER_COUNT = grep -rEn 'glint:ignore [a-z]+(,[a-z]+)* --' --include='*.go' cmd internal examples \
	| grep -v /testdata/ | grep -v 'glint:ignore rule --' | wc -l | tr -d ' '
.PHONY: waiver-check
waiver-check:
	@budget=$$(grep -E '^[0-9]+$$' .glint-waivers); \
	count=$$($(WAIVER_COUNT)); \
	if [ "$$count" -gt "$$budget" ]; then \
		echo "waiver-check: $$count //glint:ignore directives exceed the budget of $$budget;"; \
		echo "waiver-check: remove a waiver or raise the budget in .glint-waivers with the review."; \
		exit 1; \
	fi; \
	if [ "$$count" -lt "$$budget" ]; then \
		echo "waiver-check: note: $$count waivers under a budget of $$budget; consider lowering .glint-waivers"; \
	fi; \
	echo "waiver-check: $$count waiver(s) within budget $$budget"

# The size figures ROADMAP.md tracks from change to change: non-test Go
# lines, assembly lines, and the live //glint:ignore count beside the
# .glint-waivers budget. It prints them and gates nothing.
.PHONY: loc
loc:
	@echo "non-test Go lines: $$(find cmd internal examples perfbench -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)"
	@echo "assembly lines:    $$(find cmd internal examples perfbench -name '*.s' -exec cat {} + | wc -l)"
	@echo "glint waivers:     $$($(WAIVER_COUNT)) (budget $$(grep -E '^[0-9]+$$' .glint-waivers))"

# Formatting gate: fail if gofmt would rewrite anything.
.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l cmd internal examples)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

.PHONY: build
build:
	$(GO) build ./...

# The assembly kernels of internal/gp and internal/nn and the CPUID check
# of internal/cpufeat are amd64-only: building and vetting for arm64 keeps
# their Go fallbacks (the build-tagged *_other.go files) compiling.
.PHONY: cross
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/gp/ ./internal/nn/ ./internal/cpufeat/

.PHONY: test
test:
	$(GO) test ./...

# The assembly kernels' probes under GODEBUG=cpu.fma=off, where math.Exp
# leaves its FMA path: gp's kernel and nn's tanh kernel must then turn
# themselves off (their exp mirrors that path) and the Go code must pass
# the oracles alone; nn's sumRows and Adam kernels stay on.
.PHONY: fma-off
fma-off:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/nn/ ./internal/gp/

# Race pass over the concurrent layers (fleet orchestration, measurement
# retry/breaker/failover, fault injection, and the parallel search engine:
# worker pool, sharded annealer, GBT split search, sampler vote, neural
# batch scoring) plus the packages that drive them: core's candidate
# scoring and the tuners both call into the pooled scoring paths, and the
# tuned-config cache takes concurrent Puts from fleet workers. nn and prior
# cover the shared-toolkit inference that concurrent glimpsed sessions do
# and H's concurrently trained heads. tlog holds the concurrent log Writer
# and OpenAppend, the kill-safe open path of every durable JSONL log.
.PHONY: race
race:
	$(GO) test -race ./internal/fleet/... ./internal/measure/... ./internal/faults/... \
		./internal/parallel/... ./internal/anneal/... ./internal/gbt/... \
		./internal/sampler/... ./internal/acq/... ./internal/nn/... \
		./internal/prior/... ./internal/core/... ./internal/tuner/... \
		./internal/cache/... ./internal/server/... ./internal/tlog/...

.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem ./...

# Observability overhead benchmarks as a machine-readable artifact:
# disabled-tracer cost (must stay in the low single-digit ns, 0 allocs),
# enabled-tracer cost, metric primitives, and the Reliable wrapper.
.PHONY: bench-obs
bench-obs:
	$(GO) test -bench 'BenchmarkTracer|BenchmarkCounterInc|BenchmarkHistogramObserve|BenchmarkReliableOverhead' \
		-benchmem -run '^$$' ./internal/telemetry/... ./internal/measure/... \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json
	@echo wrote BENCH_obs.json

# Fleet resilience benchmark as a machine-readable artifact: the scheduler
# in one shard (no stealing or speculation) vs four shards with both, over
# 200 simulated endpoints with 10% device flap and 16 sessions each.
# Compare the meas/s metric between the two entries; the sharded entry
# measured 0.97-1.21x the one-shard entry (median 1.06x) in ten runs on
# a 2-vCPU VM, since both reroute failed chunks and spread each batch
# over the idle endpoints. -cpu 2 pins the names, as for bench-train.
FLEET_BENCH = $(GO) test -bench 'BenchmarkFleet' -benchtime 1x -benchmem -cpu 2 -run '^$$' ./internal/fleet/...
.PHONY: bench-fleet
bench-fleet:
	$(FLEET_BENCH) | $(GO) run ./cmd/benchjson > BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# Tuned-config cache benchmarks as a machine-readable artifact: exact-hit
# serving latency (must stay microseconds — it replaces a whole tuning
# session) and the 3-donor warm-vs-cold transfer study. Gated on the
# meas_savings_% metric: BenchmarkCacheWarmVsCold fails unless the warm
# run reaches the cold run's final best with >=30% fewer measurements on
# average, and cmd/benchjson then writes nothing and exits 1. The study
# runs once (-benchtime 1x); the exact hit runs 100000 Gets, so its ns/op
# is a mean rather than one timer sample. -cpu 2 pins the benchmark
# names, as for bench-train.
CACHE_BENCH = { $(GO) test -bench 'BenchmarkCacheExactHit' -benchtime 100000x -benchmem -cpu 2 -run '^$$' ./internal/cache/... && \
	$(GO) test -bench 'BenchmarkCacheWarmVsCold' -benchtime 1x -benchmem -cpu 2 -run '^$$' ./internal/cache/...; }
.PHONY: bench-cache
bench-cache:
	$(CACHE_BENCH) | $(GO) run ./cmd/benchjson > BENCH_cache.json
	@echo wrote BENCH_cache.json

# Toolkit-training benchmarks as a machine-readable artifact: one nn
# training step on a prior-head-shaped and an acquisition-shaped net
# (0 allocs/op), the tanh activation over one acquisition step's 4096
# values, and a whole reduced-config TrainToolkit. -cpu 2 pins
# GOMAXPROCS, and with it the benchmark names, so the baseline compares
# like for like on any runner.
TRAIN_BENCH = $(GO) test -bench 'BenchmarkFitStep|BenchmarkTanhRows|BenchmarkTrainToolkit' -benchmem -cpu 2 -run '^$$' \
	./internal/nn/... ./internal/core/...
.PHONY: bench-train
bench-train:
	$(TRAIN_BENCH) | $(GO) run ./cmd/benchjson > BENCH_train.json
	@echo wrote BENCH_train.json

# Surrogate-layer benchmarks as a machine-readable artifact: the
# annealer's batch energy replaying one recorded tuning step (0
# allocs/op), that step's whole one-worker anneal.Run (energy, chain
# stepping, score memo and ranking) with a fresh workspace, as the
# package-level Run allocates one per call, and in a reused
# anneal.Scratch, as every tuning session anneals, the GP posterior at 144 rows (the
# pre-lane reference, one lane and four lanes, with ns/query to compare
# them), and the GP hyperparameter grid fit. -cpu 2 pins the names as
# for bench-train.
LAYERS_BENCH = $(GO) test -bench 'BenchmarkAnnealEnergy|BenchmarkAnnealRun|BenchmarkAnnealScratchRun|BenchmarkGPPredict|BenchmarkGPFitGrid' -benchmem -cpu 2 -run '^$$' \
	./internal/core/... ./internal/gp/...
.PHONY: bench-layers
bench-layers:
	$(LAYERS_BENCH) | $(GO) run ./cmd/benchjson > BENCH_layers.json
	@echo wrote BENCH_layers.json

# Regression gates against the committed baselines with cmd/benchdiff.
# bench-diff-obs reruns the observability benchmarks (>20% ns/op or
# allocs/op growth fails); CI reports it as a soft gate — an annotation
# and artifact, not a red build — because shared runners are too noisy
# for a hard 20% wall. bench-diff-train reruns the training benchmarks:
# allocs/op fails the build (more than 20% growth, or any allocation
# where the baseline has none), while -floor-ns 1e15 puts every ns/op
# below the time floor, which keeps ns/op soft — its change still shows
# in the delta column but never fails the diff. allocs/op is exact for
# the 0-alloc steps but not for a whole TrainToolkit, which reads 28724
# or 28725 from run to run: every GC cycle empties the sync.Pools (fmt's
# printers among them) and the refills count as allocations, and how
# many cycles fall in the timed loop varies. bench-diff-layers gates the
# surrogate-layer benchmarks the same way, and so does bench-diff-cache,
# which also keeps the fresh run in bench-cache-fresh.json and fails when
# the warm-vs-cold study misses its 30% gate (empty input to benchdiff).
# bench-diff-fleet gates the fleet benchmarks the same way too: one run
# each. The sharded entry's allocs/op read 91.9k-111.8k over 17 runs,
# 15 of them within 92k-98k, and the slowest runs read the most (its
# speculation threshold is wall time); the one-shard entry's stayed
# within 2%.
.PHONY: bench-diff bench-diff-obs bench-diff-train bench-diff-layers bench-diff-cache bench-diff-fleet
bench-diff: bench-diff-obs bench-diff-train bench-diff-layers bench-diff-cache bench-diff-fleet

bench-diff-obs:
	$(GO) test -bench 'BenchmarkTracer|BenchmarkCounterInc|BenchmarkHistogramObserve|BenchmarkReliableOverhead' \
		-benchmem -run '^$$' ./internal/telemetry/... ./internal/measure/... \
		| $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_obs.json

bench-diff-train:
	$(TRAIN_BENCH) | $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchdiff -floor-ns 1e15 -baseline BENCH_train.json

bench-diff-layers:
	$(LAYERS_BENCH) | $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchdiff -floor-ns 1e15 -baseline BENCH_layers.json

bench-diff-cache:
	$(CACHE_BENCH) | $(GO) run ./cmd/benchjson | tee bench-cache-fresh.json \
		| $(GO) run ./cmd/benchdiff -floor-ns 1e15 -baseline BENCH_cache.json

bench-diff-fleet:
	$(FLEET_BENCH) | $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchdiff -floor-ns 1e15 -baseline BENCH_fleet.json

.PHONY: fmt
fmt:
	gofmt -w cmd internal examples
