# Local CI gate for the PreciseTracer reproduction.
#
#   make ci      # everything below, in order
#   make race    # the concurrency gate for the sharded correlator
#
# The race and bench targets exist because of the concurrent correlation
# pipeline (core.Options.Workers > 1): every change to core, flow, ranker
# or engine must keep `go test -race ./...` clean and should compare the
# end-to-end benchmark against its parent (python3 perfbench/run.py; see
# perfbench/README.md).

GO ?= go

# Minimum combined statement coverage for the correlator's concurrency
# core (internal/core + internal/flow + internal/live) plus the live
# analytics tier (internal/sketch + internal/export) — the packages the
# streaming session (including the SealAfter continuous mode and its
# worker-pool dispatch), the online monitor and its bounded-memory
# sketches and export sinks live in.
COVER_MIN ?= 85

.PHONY: ci vet lint build test race cover bench bench-allocs bench-promote bench-scaling soak soak-short perfbench

ci: vet lint build test race cover bench bench-allocs soak-short perfbench

vet:
	$(GO) vet ./...

# staticcheck is the second linter gate (hosted CI installs it; see
# .github/workflows/ci.yml). Local runs without the binary skip it with a
# note instead of failing, so `make ci` works on a hermetic box.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (hosted CI runs it — go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark is its own module (perfbench/go.mod), so the root ./...
# patterns above skip it. Vetting and testing it here makes a change to
# an API it uses fail in CI, not first in the benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

cover:
	$(GO) test -coverprofile=coverage.out ./internal/core ./internal/flow ./internal/live ./internal/sketch ./internal/export
	@$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) '/^total:/ { pct = $$3; sub(/%/, "", pct); printf "coverage: %s%% of statements in internal/core+internal/flow+internal/live+internal/sketch+internal/export (minimum %s%%)\n", pct, min; exit (pct + 0 < min + 0) }'

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Allocation regression gates for the streaming-engine hot path. Each
# BenchmarkSessionPush variant has its own budget: the measured figure on
# the reference box plus ~25-30% headroom for machine variance — an
# accidental per-record allocation costs ~37k allocs/op here and blows
# either budget immediately.
#
#   seq-close-driven: ~54k measured on the worker-pool pipeline (down
#   from 178,250 before dense interned identities, ~68k before the
#   worker-pool ranker/engine reuse).
ALLOCS_BUDGET ?= 65000
#   seq-continuous (SealAfter horizon, per-component forced seals): ~64k
#   measured after the worker-pool reuse + flow key recycling, down from
#   ~139k when every sealed component rebuilt its ranker and engine.
ALLOCS_BUDGET_CONTINUOUS ?= 78000

bench-allocs:
	@$(GO) test -run '^$$' -bench 'BenchmarkSessionPush/seq-(close-driven|continuous)' \
		-benchmem -benchtime=3x . \
	| awk -v budget=$(ALLOCS_BUDGET) -v cbudget=$(ALLOCS_BUDGET_CONTINUOUS) ' \
		/BenchmarkSessionPush\/seq-close-driven/ { a = $$(NF-1) + 0; found++; \
			printf "bench-allocs: seq-close-driven %d allocs/op (budget %d)\n", a, budget; \
			if (a > budget) bad = 1 } \
		/BenchmarkSessionPush\/seq-continuous/ { a = $$(NF-1) + 0; found++; \
			printf "bench-allocs: seq-continuous %d allocs/op (budget %d)\n", a, cbudget; \
			if (a > cbudget) bad = 1 } \
		END { \
			if (found != 2) { printf "bench-allocs: expected 2 benchmark results, got %d\n", found; exit 1 } \
			exit bad \
		}'

# Scaling-efficiency gate: parallel efficiency (speedup/workers) at the
# largest benchmark scale with workers=NumCPU must stay above
# SCALING_FLOOR. Skips itself on single-CPU hosts and under -race; the
# hosted bench job runs it on every push (see .github/workflows/ci.yml).
SCALING_FLOOR ?= 0.30

bench-scaling:
	BENCH_SCALING_GATE=1 SCALING_FLOOR=$(SCALING_FLOOR) \
		$(GO) test -run TestScalingEfficiencyGate -count=1 -v -timeout 10m .

# Promote a downloaded CI bench run into the checked-in baseline: the
# hosted bench job uploads BENCH_pipeline.json + bench.txt as the
# "bench" artifact; unpack it and point BENCH_ARTIFACT at the directory.
# benchpromote validates the matrix and folds the -benchmem allocs/op
# figures from bench.txt into the session_push entries before rewriting
# BENCH_pipeline.json.
BENCH_ARTIFACT ?= bench-artifact

bench-promote:
	$(GO) run ./cmd/benchpromote -artifact $(BENCH_ARTIFACT) -out BENCH_pipeline.json

# Loopback soak of the network ingestion tier: many concurrent agents
# shipping a sustained load through collector → ingest → session, with a
# mid-stream reconnect, checked byte-for-byte against the offline replay
# of the same records — plus the sketched monitor's fixed-capacity gate
# (footprint flat over a much longer synthetic stream). soak-short is
# the quick version `make ci` runs; `make soak` scales both up (tune
# SOAK_AGENTS / SOAK_REQUESTS / SOAK_LIVE_SCALE).
SOAK_AGENTS ?= 24
SOAK_REQUESTS ?= 20000
SOAK_LIVE_SCALE ?= 100

soak:
	$(GO) test ./internal/transport -count=1 -run TestTransportSoak -v \
		-soak.agents=$(SOAK_AGENTS) -soak.requests=$(SOAK_REQUESTS) -timeout 15m
	$(GO) test ./internal/live -count=1 -run TestMonitorSketchedCapacity -v \
		-live.soakscale=$(SOAK_LIVE_SCALE) -timeout 15m

soak-short:
	$(GO) test ./internal/transport -count=1 -run TestTransportSoak \
		-soak.agents=12 -soak.requests=2000
	$(GO) test ./internal/live -count=1 -run TestMonitorSketchedCapacity \
		-live.soakscale=25
