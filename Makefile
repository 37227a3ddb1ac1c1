# Developer entry points; CI (.github/workflows/ci.yml) runs the steps of
# `make check` plus `make bench-smoke` and `make smoke-server`.

GO ?= go

.PHONY: build test race vet check bench bench-smoke bench-module-smoke bench-baseline bench-new benchstat serve smoke-server crash-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the whole tree — the parallel engine must stay
# race-clean. -short skips only TestSpeedup's wall-clock assertion; every
# other test runs here, including the equivalence and delta seed
# matrices, the crash matrix and the Fig. 7 pages guard.
race:
	$(GO) test -race -short ./...

check: build vet race crash-smoke bench-module-smoke

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

# Run the CIJ query service locally with two demo datasets preloaded
# (README "Serving CIJ" has curl examples against it).
serve:
	$(GO) run ./cmd/cijserver -addr :8080 -preload "demo_p=uniform:20000,demo_q=clustered:20000"

# End-to-end server smoke: start cijserver, ingest, join, stream, assert.
# CI runs this on every push.
smoke-server:
	./scripts/smoke_server.sh

# Out-of-process durability smoke: start cijserver -data-dir, kill -9 it
# mid-mutation-stream, fsck, restart, and assert the recovered join
# matches the in-memory grid oracle and the SIGTERM cycle round-trips the
# clean-shutdown marker. The in-process crash matrix (TestCrashMatrix)
# runs in `race`. Part of `make check`; CI runs it on every push.
crash-smoke:
	./scripts/crash_smoke.sh
