# Development targets. CI (.github/workflows/ci.yml) runs exactly these,
# so local `make ci` reproduces the full pipeline.

GO ?= go

# Packages with real concurrency (executor workers, suspension strategies,
# adaptive controller, serving layer, public API) — the -race job covers these.
RACE_PKGS := . ./internal/engine/... ./internal/expr/... ./internal/vector/... ./internal/strategy/... ./internal/riveter/... ./internal/obs/... ./internal/server/... ./internal/blobstore/... ./internal/controlplane/... ./internal/faultnet/... ./internal/fold/...

# Packages exercising the fault-injection matrix: the injectable
# filesystem, checkpoint crash/verify tests, the lineage-log crash matrix,
# the server degradation ladder, and the end-to-end crash matrix in the
# root package.
FAULT_PKGS := . ./internal/faultfs/... ./internal/checkpoint/... ./internal/strategy/... ./internal/server/...

# Pinned linter/scanner versions so CI and local runs agree; bump
# deliberately, not via @latest drift.
STATICCHECK_VERSION := 2025.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test race vet fmt lint generate generate-check profile scheduler-suite blob-suite lineage-suite fuzz-smoke bench-smoke bench bench-gate bench-e2e-smoke serve-smoke fleet-suite chaos-suite fold-suite fault-matrix ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis (staticcheck) and known-vulnerability scan (govulncheck).
# CI installs the pinned versions; locally, missing binaries are skipped
# with a notice rather than failing the build — the container may not have
# network access to install them.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Regenerate the emitted kernel layer (internal/engine/kernel/*_gen.go
# from internal/engine/kernelgen). The generator is deterministic, so a
# clean work tree after `make generate` proves the committed kernels
# match the generator — which is exactly what generate-check enforces.
generate:
	$(GO) generate ./...

generate-check: generate
	@out="$$(git status --porcelain -- '*_gen.go')"; \
	if [ -n "$$out" ]; then \
		echo "::error::generated kernels are stale; run 'make generate' and commit:"; \
		git --no-pager diff -- '*_gen.go' | head -100; \
		echo "$$out"; exit 1; \
	fi
	@echo "generated kernels are in sync with kernelgen"

# CPU and heap profiles for one TPC-H query benchmark (default Q18):
# `make profile QUERY=Q21` leaves cpu.prof/mem.prof plus the test binary
# in profiles/ — inspect with `go tool pprof profiles/tpch.test profiles/cpu.prof`.
QUERY ?= Q18
profile:
	@mkdir -p profiles
	$(GO) test ./internal/tpch -run '^$$' -bench 'BenchmarkTPCH/$(QUERY)$$' -benchmem \
		-benchtime 20x -cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/tpch.test
	@echo "profiles written: go tool pprof profiles/tpch.test profiles/cpu.prof"

# The DAG scheduler suites under the race detector, twice: DAG-vs-serial
# schedule equivalence (engine plans and all 22 TPC-H queries),
# multi-pipeline mid-DAG suspend/resume, the clean rejection of the v1
# checkpoint format, and the server preemption that quiesces a whole DAG.
scheduler-suite:
	$(GO) test -race -count=2 \
		-run 'DAG|Scheduler|MaxConcurrentPipelines|InFlight|StateFormatV1|MultipleSuspensions|QueriesDAGMatchesSerial' \
		./internal/engine/... ./internal/tpch/... ./internal/server/...

# The blob-store subsystem under the race detector, twice: the full
# chunker/dedup/GC/claim unit suites, store-aware cost-model calibration,
# store-backed persistence strategies, and the cross-instance migration
# and delta-suspension acceptance tests in the server and root packages.
blob-suite:
	$(GO) test -race -count=2 ./internal/blobstore/... ./internal/costmodel/...
	$(GO) test -race -count=2 \
		-run 'Store|Blob|Claim|Migrat|Chunk' \
		. ./internal/server/... ./internal/engine/...

# The write-ahead-lineage strategy under the race detector, twice: the
# log's unit and property tests, the every-byte crash matrix, the cost
# model's lineage terms, the server's lineage preemption/fallback/restore
# paths, and the 22-query strategy-equivalence suite in the root package.
lineage-suite:
	$(GO) test -race -count=2 -run 'Lineage' \
		. ./internal/strategy/... ./internal/costmodel/... ./internal/riveter/... ./internal/server/...

# Ten seconds of native fuzzing per target: the byte-level decoders — the
# checkpoint file (FuzzReadImage) and the store's manifest and chunks
# (FuzzReadCheckpoint, whose worker goroutines make coverage vary between
# runs — without -fuzzminimizetime 1x the engine sits in minimization) — and
# the expression evaluator against its scalar oracle on random trees
# (FuzzProgramMatchesScalar). The committed corpora run as plain tests in
# `make test`; this catches what only mutation finds. A crasher is written
# under the package's testdata/fuzz and fails the target.
fuzz-smoke:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzReadImage$$' -fuzztime 10s
	$(GO) test ./internal/blobstore -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzProgramMatchesScalar$$' -fuzztime 10s

# Every engine benchmark plus the TPC-H per-query suite, at the benchtime
# the committed BENCH_engine.json records (BENCHTIME=... overrides): keeps
# benchmark code compiling and running, and emits BENCH_engine.json (ns/op,
# allocs/op, per-query wall times) for the CI artifact and for bench-gate,
# which can only compare samples taken the same way.
bench-smoke:
	GO="$(GO)" sh scripts/bench_json.sh BENCH_engine.json

# Real engine microbenchmarks (compare against bench_results.txt).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/engine/...

# Regression gate: diff the fresh bench-smoke JSON against the committed
# baseline. >25% ns/op or allocs/op regression on any engine, TPC-H or
# blobstore benchmark fails; 10-25% (and regressions in the other
# sections) warn — allocation counts are deterministic, so an allocs/op
# jump is always a real code change, never noise. Also enforces the
# lineage acceptance ratio (LineageSuspend <= 10% of ProcessSuspendResume).
# Runs after bench-smoke, which leaves BENCH_engine.json in the work tree.
bench-gate:
	@git show HEAD:BENCH_engine.json > BENCH_baseline.json 2>/dev/null \
		|| { echo "no committed BENCH_engine.json baseline; skipping gate"; exit 0; }
	sh scripts/bench_compare.sh BENCH_baseline.json BENCH_engine.json; \
		status=$$?; rm -f BENCH_baseline.json; exit $$status

# benchmark/ is a module of its own (replace => ../), so `go build ./...`
# and `go test ./...` at the root never compile it: an API change that
# breaks it would be invisible to every target above. This vets it and runs
# its smoke test (every workload once, results checked against the golden
# digests) against the root module as it stands.
bench-e2e-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# End-to-end check of riveter-serve: boot on a tiny TPC-H dataset, submit
# concurrent HTTP queries, verify responses and serving metrics, then
# SIGTERM mid-load and verify the restarted server resumes the work.
serve-smoke:
	sh scripts/serve_smoke.sh

# The fleet control plane: the controlplane package under the race
# detector (registry death detection, cost-aware picking, the rolling-
# kill failover acceptance test, scale-to-zero through the proxy, and
# spot-notice drains), the server's fleet-facing surface, the cloud
# simulation edges — then the multi-process smoke: riveter-proxy in
# front of three riveter-serve instances with two SIGKILLs mid-load and
# a scale-to-zero round trip, all over real HTTP.
fleet-suite:
	$(GO) test -race -count=1 ./internal/controlplane/... ./internal/cloud/...
	$(GO) test -race -count=1 -run 'Health|Keyed|Idle|Adopt|Fleet' ./internal/server/...
	sh scripts/proxy_smoke.sh

# The chaos suite under the race detector, twice: the faultnet
# fault-injection layer's unit tests, the breaker/retry classification
# tests, and the five deterministic chaos scenarios — asymmetric
# partition with split-brain adoption, double-adopt fencing, flap
# quarantine, slow-link failover, and the N-waiter same-key kill — each
# of which must land on exactly-once execution. -count=2 proves the
# seeded plans replay.
chaos-suite:
	$(GO) test -race -count=2 ./internal/faultnet/...
	$(GO) test -race -count=2 -timeout 30m \
		-run 'TestChaos|TestBreaker|TestRetry' ./internal/controlplane/

# The shared-execution subsystem under the race detector, twice: the scan
# hub and subplan cache unit suites, the 22-query fold-vs-isolated
# equivalence and suspend-one-rider acceptance tests in the root package,
# and the server's whole-plan folding, plan cache, and rider-aware
# preemption tests.
fold-suite:
	$(GO) test -race -count=2 ./internal/fold/...
	$(GO) test -race -count=2 -run 'Fold|PlanCache|RawSQL' \
		. ./internal/server/...

# The fault matrix under the race detector, twice — crash points, torn
# writes, ENOSPC, quarantine, retry/fallback/abandon ladders, and the
# persistence-seam contract over all three targets. -count=2 also shakes
# out order dependence between injected faults.
fault-matrix:
	$(GO) test -race -count=2 \
		-run 'Fault|Crash|Verify|Quarantine|Retry|Sweep|Abandon|Degraded|ResumeInPlace|Injector|Budget|Torn|ENOSPC|Seam' \
		$(FAULT_PKGS)

ci: build vet fmt lint test race scheduler-suite blob-suite lineage-suite fuzz-smoke bench-smoke bench-gate bench-e2e-smoke serve-smoke fleet-suite chaos-suite fold-suite fault-matrix
