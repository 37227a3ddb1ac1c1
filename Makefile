# Developer entry points; CI (.github/workflows/ci.yml) runs `make check`
# plus the `make bench-smoke` job.

GO ?= go

.PHONY: build test race vet check prop bench bench-smoke bench-module-smoke pages-guard bench-baseline bench-new benchstat bench-json bench-flat bench-parallel bench-grid scal serve smoke-server bench-service metrics-smoke journal-smoke mutate-smoke crash-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the whole tree — the parallel engine must stay
# race-clean. -short skips wall-clock speedup assertions.
race:
	$(GO) test -race -short ./...

check: build vet race prop metrics-smoke journal-smoke mutate-smoke crash-smoke bench-module-smoke

# Observability slice under the race detector: the obs metric/trace
# primitives (concurrent scrape-while-mutate, shared-trace Add) and the
# service-level reconciliation tests (trace sums == response stats,
# /metrics deltas == per-query stats, explain, slow-query log).
metrics-smoke:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'TestTrace|TestMetrics|TestStreamTrace|TestExplainDoesNotExecute|TestSlowQueryLog|TestRequestLog' ./internal/service/...

# Introspection slice under the race detector: journal ring wraparound and
# slowest-K retention (concurrent joins included), stats reconciliation
# (journal record == response == /metrics deltas), JSONL sink round-trip,
# Chrome trace export golden fields, metrics-history sampling and window
# math, and the /debug/queries + /stats/history endpoints.
journal-smoke:
	$(GO) test -race -run 'TestJournal|TestDebugQueries|TestStatsHistory|TestExplainObserved|TestChromeTrace|TestRuntimeCollector|TestRingWraparound|TestWindow|TestStartStop' \
		./internal/obs/... ./internal/service/...

# Mutation slice under the race detector: the live-dataset surface —
# mutation batches vs the brute-force oracle across every algorithm,
# snapshot isolation (joins racing point mutations always see one clean
# version), subscription churn reconciliation (baseline + events == full
# recompute), the field-exact cache invalidation regression, and the
# panic-recovery middleware.
mutate-smoke:
	$(GO) test -race -run 'TestMutate|TestSubscribeChurn|TestCacheInvalidationExactNames|TestInstrumentPanicRecovery' \
		./internal/service/...

# Property-based equivalence harness (internal/check): the fixed seed
# matrix holding NM ≡ PM ≡ FM ≡ parallel ≡ grid ≡ brute, the delta
# maintenance oracle (incremental pair churn ≡ full recompute across the
# same seed matrix × insert/delete/update batches), plus the planner's
# algo-selection tests, under the race detector with a coverage profile
# over the whole module (CI uploads coverage.out).
prop:
	$(GO) test -race -coverprofile=coverage.out -coverpkg=./... \
		-run 'TestEquivalenceSeeds|TestInvariantSeeds|TestGeneratorShape|TestFlatPagedEquivalence|TestFlatStatsEquivalenceParallel|TestPlanSelection|TestIngestComputesSkew|TestConcurrentAutoAndGridJoins|TestDeltaSeeds|TestMutateSnapshotIsolationRace' \
		./internal/check/... ./internal/service/...

bench:
	$(GO) test -bench . -benchmem -run xxx ./...

# One iteration of every benchmark — catches bit-rot in bench code without
# paying for stable numbers. CI runs this on every push.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# The service benchmark's own smoke test (bench/ is a module of its own,
# so the root ./... never reaches it): all four workloads on short windows
# with their oracles, including mutate-live's check that a subscriber's
# baseline plus its churn equals a fresh join. CI runs it on every push.
bench-module-smoke:
	cd bench && $(GO) test ./...

# Pages guard: recompute the Fig. 7 joins and assert pages/op is
# byte-identical to the committed BENCH_nmcij.json for NM/PM/FM, and that
# flat-storage NM emits the byte-identical pair sequence with zero page
# accesses. The paper's I/O metric must never move under CPU-side
# optimization (decode caching, pooling, flat arenas, geometric fast
# paths); CI fails the build if it does.
pages-guard:
	$(GO) test -run 'TestFig7PagesMatchBaseline|TestFlatModeZeroPages' -count 1 .

# benchstat workflow: record a baseline on the base commit, re-run on your
# branch, compare. BENCH_FILTER narrows the set; COUNT=10 gives benchstat
# enough samples for significance tests.
BENCH_FILTER ?= BenchmarkFig7_|BenchmarkParallel_SpeedupCurve
COUNT ?= 10
bench-baseline:
	$(GO) test -run xxx -bench '$(BENCH_FILTER)' -benchmem -count $(COUNT) . | tee bench-baseline.txt
bench-new:
	$(GO) test -run xxx -bench '$(BENCH_FILTER)' -benchmem -count $(COUNT) . | tee bench-new.txt
benchstat:
	@command -v benchstat >/dev/null || { \
		echo "benchstat not installed: go install golang.org/x/perf/cmd/benchstat@latest"; exit 1; }
	benchstat bench-baseline.txt bench-new.txt

# Machine-readable perf trajectory (ns/op, allocs/op, pages/op for Fig. 7
# and the parallel speedup curve) written to BENCH_nmcij.json.
bench-json:
	./scripts/bench_json.sh

# Paged-vs-flat storage comparison (Fig. 7 NM on both backends plus the
# arena build cost), written to BENCH_flat.json.
bench-flat:
	./scripts/bench_json.sh flat

# Multicore speedup curve (1/2/4/8 workers x paged/flat), written to
# BENCH_parallel.json; on a 1-CPU host the document records the skip
# reason instead of a misleading 1.0x curve.
bench-parallel:
	./scripts/bench_json.sh parallel

# Grid-vs-NM crossover at reduced scale, recorded in BENCH_grid.json
# (also part of bench-json).
bench-grid:
	$(GO) run ./cmd/cijbench -exp grid -scale 0.2

# Parallel scalability table at reduced scale.
scal:
	$(GO) run ./cmd/cijbench -exp scal -scale 0.1

# Run the CIJ query service locally with two demo datasets preloaded
# (README "Serving CIJ" has curl examples against it).
serve:
	$(GO) run ./cmd/cijserver -addr :8080 -preload "demo_p=uniform:20000,demo_q=clustered:20000"

# End-to-end server smoke: start cijserver, ingest, join, stream, assert.
# CI runs this on every push.
smoke-server:
	./scripts/smoke_server.sh

# Durability smoke: the in-process crash matrix (every fault point × every
# crash mode, under the race detector) plus the out-of-process one — start
# cijserver -data-dir, kill -9 it mid-mutation-stream, fsck, restart, and
# assert the recovered join matches the in-memory grid oracle and the
# SIGTERM cycle round-trips the clean-shutdown marker. Part of `make
# check`; CI runs it on every push.
crash-smoke:
	$(GO) test -race -run 'TestCrashMatrix|TestDurable|TestCheckpoint|TestWAL|TestFaultFS|TestPageFile|TestFsck|TestOpen' \
		./internal/check/... ./internal/service/... ./internal/storage/... ./internal/rtree/...
	./scripts/crash_smoke.sh

# Query-service load benchmark: sustained req/s at 1/4/16 concurrent join
# clients, written to BENCH_service.json (also part of bench-json).
bench-service:
	$(GO) run ./cmd/cijbench -exp serve -scale 0.02 -clients 1,4,16 -servejson BENCH_service.json
