# Developer entry points; CI (.github/workflows/ci.yml) runs the steps of
# `make check` plus `make bench-smoke`.

GO ?= go

.PHONY: build test race vet fuzz check bench bench-smoke bench-module-smoke bench-baseline bench-new benchstat serve smoke-server crash-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet over the root module and the bench/ module (which the root ./...
# never reaches), then gofmt over every tracked Go file: any file gofmt
# would rewrite fails the target.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# Race-detector run over the whole tree — the parallel engine must stay
# race-clean. -short skips only TestSpeedup's wall-clock assertion; every
# other test runs here, including the equivalence and delta seed
# matrices, the crash matrix and the Fig. 7 pages guard.
race:
	$(GO) test -race -short ./...

# Ten seconds of coverage-guided fuzzing per target over the bytes the
# service takes from outside: CSV ingest bodies, the WAL and snapshot page
# files, and the join and mutation requests through the HTTP handlers
# (never a 5xx, so never a panic); over the grid backend's filtered
# orient/incircle predicates against exact math/big evaluation; over
# graphs derived by local edits on a degenerate lattice against fresh
# builds of the same points, and their churn against the diff of whole
# joins; and over the join predicate's clip-free filter against the clip
# on Voronoi cells of degenerate lattice sets. Every
# `go test` run replays each target's seed corpus; this searches past it.
# Minimizing a new input may take 10 executions at most: the default
# (60s) spends a whole window shrinking the first 3 KB snapshot, and a
# 1s limit still let a cold corpus spend most of FuzzJoinRequest's window
# minimizing. A failing input lands in the package's testdata/fuzz as a
# regression seed to commit.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzReadCSV$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/dataset
	$(GO) test -run xxx -fuzz '^FuzzScanWAL$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/storage
	$(GO) test -run xxx -fuzz '^FuzzRestoreSnapshot$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/service
	$(GO) test -run xxx -fuzz '^FuzzJoinRequest$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/service
	$(GO) test -run xxx -fuzz '^FuzzMutationRequest$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/service
	$(GO) test -run xxx -fuzz '^FuzzPredicates$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/grid
	$(GO) test -run xxx -fuzz '^FuzzDeriveGraph$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/grid
	$(GO) test -run xxx -fuzz '^FuzzCellsJoin$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/core

check: build vet race fuzz crash-smoke smoke-server bench-module-smoke

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
# Part of `make check`; CI runs it on every push.
smoke-server:
	./scripts/smoke_server.sh

# Out-of-process durability smoke: start cijserver -data-dir, kill -9 it
# mid-mutation-stream, fsck, restart, and assert the recovered join
# matches the in-memory grid oracle and the SIGTERM cycle round-trips the
# clean-shutdown marker. The in-process crash matrix (TestCrashMatrix)
# runs in `race`. Part of `make check`; CI runs it on every push.
crash-smoke:
	./scripts/crash_smoke.sh
