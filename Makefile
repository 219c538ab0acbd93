# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-self lint-obs ci accept test race e2e-test examples bench bench-quick bench-core bench-serve smoke-serve smoke-router smoke-resume loadtest chaos chaos-router fuzz table1 figures ablate clean

all: build vet lint test

build:
	$(GO) build ./...

# vet covers the root module and the nested cmd/ddd-e2e module, which
# has its own go.mod and so is outside the root's ./..., and fails when
# gofmt would reformat any Go file in either.
vet:
	$(GO) vet ./...
	cd cmd/ddd-e2e && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l: unformatted files:"; echo "$$unformatted"; exit 1; fi

# ddd-lint: the repo's eight analyzers (detrand, parsafe, floateq,
# checkerr, hotalloc, ctxflow, pairok, detorder) run alongside go vet
# over every package, cmd/ included. -time prints per-analyzer wall
# time on stderr so a slow analyzer is caught before it slows the
# gate. See DESIGN.md, "Determinism & lint invariants" and
# "Flow-sensitive analysis".
lint: vet
	$(GO) run ./cmd/ddd-lint -time ./...

# lint-self turns the analyzers on their own implementation: the CFG
# builder, dataflow engine, and analyzer packages must satisfy the
# same invariants they enforce.
lint-self:
	$(GO) run ./cmd/ddd-lint -time ./internal/analysis/... ./cmd/ddd-lint

# lint-obs scopes the analyzers to the metrics layer alone — the
# package every other layer's instrumentation hooks into, so it gets
# its own fast pre-merge check even when a change skips full lint.
lint-obs:
	$(GO) run ./cmd/ddd-lint ./internal/obs/...

# ci is the pre-merge gate: build, vet, ddd-lint (full + self + the
# obs layer), the full test suite under the race detector, the ddd-serve
# end-to-end smoke, the router-tier smoke, the loadgen SLO gate, the
# router chaos gate (kill a replica mid-load, tier must re-converge),
# the kill-and-resume checkpoint smoke, the analytic-engine acceptance
# gate, the end-to-end benchmark harness's own tests, every example
# run to completion, and the allocation budget of the dictionary build loop (steady-state allocs
# must be independent of the Monte-Carlo sample count).
ci: build lint lint-self lint-obs smoke-serve smoke-router loadtest chaos-router smoke-resume accept e2e-test examples
	$(GO) test -race ./...
	$(GO) test ./internal/core -run '^TestBuildDictionaryAllocBudget$$' -count=1

# accept runs the analytic-vs-MC engine acceptance gate on its own:
# rebuilds the precomputed dictionary under both engines and fails if
# any tolerance in internal/eval/accept_test.go is exceeded (STA moments,
# dictionary entries, top-1 diagnosis agreement). Also part of the
# plain test suite via TestAnalyticEngineAcceptance.
accept:
	$(GO) test ./internal/eval -run '^TestAnalyticEngineAcceptance$$' -count=1 -v

# smoke-serve boots ddd-serve on a random port with a generated test
# dictionary, sends one diagnose request, asserts 200 + the expected
# top-1 arc, scrapes /metrics and asserts the key series (requests,
# latency histogram, cache hit/miss/eviction, pool queue depth), and
# shuts down gracefully.
smoke-serve:
	$(GO) test ./internal/service -run '^TestSmokeServe$$' -count=1 -v

# smoke-router boots two replicas plus the router on real listeners,
# asserts aggregate readiness, a routed diagnosis with the expected
# top-1 arc, an admin-triggered snapshot transfer between replicas,
# and the router's /metrics and /stats surfaces.
smoke-router:
	$(GO) test ./internal/service -run '^TestSmokeRouter$$' -count=1 -v

# loadtest replays the deterministic ddd-loadgen mix (hot-dictionary
# skew, batch and malformed traffic) against a live server and gates
# on the SLO report: zero transport errors, 400 for every malformed
# request, 200 for everything else, and the RPS/p99 floor.
loadtest:
	$(GO) test ./cmd/ddd-loadgen -run '^TestLoadtestSLO$$' -count=1 -v

# smoke-resume builds ddd-table1, SIGKILLs a checkpointed run
# mid-journal, resumes it, and byte-compares the final table against
# an uninterrupted run.
smoke-resume:
	$(GO) test ./cmd/ddd-table1 -run '^TestKillAndResumeReproducesTable$$' -count=1 -v

# chaos runs the deterministic fault-injection suite under the race
# detector: failed loads never poison the singleflight, worker panics
# are contained, corrupted dictionaries are rejected, deadline 504s
# free their worker slots, and degraded batches stay byte-identical.
chaos:
	$(GO) test -race ./internal/fault -count=1
	$(GO) test -race ./internal/service -run '^TestChaos' -count=1 -v

# chaos-router is the self-healing tier's end-to-end gate: three full
# replicas behind the router, the deterministic loadgen mix replaying
# against it, one replica killed mid-run. The run must stay invisible
# to clients (zero transport errors, SLO green), the tier must
# re-converge (victim demoted, /readyz 200, zero snapshot transfers —
# every replica holds every dictionary), routed responses must stay
# byte-identical to a direct replica answer, and no goroutine may
# leak.
chaos-router:
	$(GO) test -race ./cmd/ddd-loadgen -run '^TestChaosRouterKillReplica$$' -count=1 -v

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# e2e-test runs the tests of the end-to-end benchmark harness
# (cmd/ddd-e2e, a module of its own, so `go test ./...` at the root
# skips it) at toy scale, in a few seconds.
e2e-test:
	cd cmd/ddd-e2e && $(GO) test ./...

# examples runs every program under examples/ and fails on the first
# non-zero exit: `go build` only proves they compile, while an example
# whose seeded case escapes exits through log.Fatal.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null; done

# Scaled-down Table I + figure + ablation benches (see bench_test.go);
# full-fidelity Table I is `make table1`.
bench:
	$(GO) test -bench=. -benchmem -run XXX .

# bench-quick is the fast tier to run on every change, about 21 s once
# built on a 2-vCPU Xeon VM: one traced end-to-end pass over each Table I
# workload (Monte-Carlo and analytic engine, seed 1, with the per-stage
# breakdown; the harness exits nonzero unless the Table I digests
# match its golden file), then the diagnostic pattern generation and
# the two Monte-Carlo dictionary build benchmarks (the fixed kernel mix
# and one s1196 Table I case), single-threaded, three runs each.
bench-quick:
	bash cmd/ddd-e2e/run.sh --workload table1_mc,table1_analytic --seed 1 --seconds 20 --trace 1
	$(GO) test -run XXX -bench 'BenchmarkCore(DiagnosticPatterns|BuildDictionary|BuildDictionaryCase)$$' -count 3 -cpu 1 .

# bench-core runs the tracked core kernel suite (bench_core_test.go)
# single-threaded, three runs per benchmark, then folds the medians
# against the committed baseline (benchmarks/core_baseline.txt) into
# BENCH_core.json via cmd/ddd-bench. The -check gates fail the target
# if the MC dictionary build regresses below 4x over the
# pre-optimization baseline (difference-propagation defect
# re-simulation, DESIGN.md §20), the analytic build drops below 10x
# over the pre-change MC build (its baseline row is that MC build's
# time, not the current one's), or word-parallel tiered suspect
# pruning falls below 4x over its committed scalar baseline (the
# baseline lines carry the scalar-path numbers — see the comment in
# core_baseline.txt; BenchmarkCoreBehaviorSim is folded but ungated), or
# diagnostic pattern generation (the flat-table, trail-undo PODEM
# kernel with cone-restricted worklist implication plus the
# word-parallel witness search) falls below 20x over the
# full-resimulation, trial-at-a-time ATPG.
# Expect ~1 h wall clock (the dictionary benchmark is ~3-4 s/op x 3
# runs), and the baseline was captured with the identical flags.
bench-core:
	$(GO) test -run '^$$' -bench '^BenchmarkCore' -benchmem -count 3 -cpu 1 -timeout 120m . \
		| tee benchmarks/core_current.txt
	$(GO) run ./cmd/ddd-bench \
		-baseline benchmarks/core_baseline.txt \
		-current benchmarks/core_current.txt \
		-out BENCH_core.json \
		-check BenchmarkCoreBuildDictionary:4 \
		-check BenchmarkCoreBuildDictionaryAnalytic:10 \
		-check BenchmarkCoreSuspects:4 \
		-check BenchmarkCoreDiagnosticPatterns:20

# bench-serve measures the service's cache-hit diagnosis path — both
# the single-node handler stack and the routed path through the
# sharded tier's front door (ring lookup + forward + relay) — and
# folds the medians against the committed baseline
# (benchmarks/serve_baseline.txt) into BENCH_serve.json via
# cmd/ddd-bench, so serve-tier numbers are tracked in git alongside
# the core kernels. Single-threaded (-cpu 1), like bench-core.
bench-serve:
	$(GO) test ./internal/service -run '^$$' -bench '^BenchmarkServe' -benchmem -count 3 -cpu 1 \
		| tee benchmarks/serve_current.txt
	$(GO) run ./cmd/ddd-bench \
		-baseline benchmarks/serve_baseline.txt \
		-current benchmarks/serve_current.txt \
		-out BENCH_serve.json

fuzz:
	$(GO) test ./internal/benchfmt -fuzz=FuzzParse -fuzztime 30s
	$(GO) test ./internal/core -fuzz=FuzzLoadDictionary -fuzztime 30s
	$(GO) test ./internal/core -fuzz=FuzzSuspectWords -fuzztime 30s
	$(GO) test ./internal/eval -fuzz=FuzzCheckpointJournal -fuzztime 30s
	$(GO) test ./internal/timing -fuzz=FuzzBlockedSTA -fuzztime 30s
	$(GO) test ./internal/atpg -fuzz=FuzzImplication -fuzztime 30s
	$(GO) test ./internal/logicsim -fuzz=FuzzSiteSensitizedWords -fuzztime 30s
	$(GO) test ./internal/tsim -fuzz=FuzzDefectDiff -fuzztime 30s
	$(GO) test ./internal/tsim -fuzz=FuzzDiffs -fuzztime 30s
	$(GO) test ./internal/dist -fuzz=FuzzMaxNormal -fuzztime 30s

table1:
	$(GO) run ./cmd/ddd-table1 -n 20

figures:
	$(GO) run ./cmd/ddd-figures

ablate:
	$(GO) run ./cmd/ddd-ablate -exp all

clean:
	$(GO) clean ./...
