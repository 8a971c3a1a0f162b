# Development targets. CI (.github/workflows/ci.yml) runs exactly these,
# so local `make ci` reproduces the full pipeline.

GO ?= go

# The race gate's packages, in three groups CI runs side by side: every
# package with real concurrency (executor workers, the DAG scheduler,
# suspension strategies and their fault matrix, the blob store, the
# adaptive controller, shared execution, the serving layer, the fleet
# control plane and its chaos scenarios, the public API) plus the suites
# that drive them (TPC-H equivalence, cost-model calibration, checkpoint
# and filesystem fault injection, the cloud simulation).
RACE_ENGINE := . ./internal/engine/... ./internal/expr/... ./internal/vector/... ./internal/tpch/... ./internal/fold/...
RACE_PERSIST := ./internal/strategy/... ./internal/riveter/... ./internal/obs/... ./internal/blobstore/... ./internal/costmodel/... ./internal/checkpoint/... ./internal/faultfs/...
RACE_SERVE := ./internal/server/... ./internal/controlplane/... ./internal/faultnet/... ./internal/cloud/...
RACE_PKGS := $(RACE_ENGINE) $(RACE_PERSIST) $(RACE_SERVE)

# Pinned linter/scanner versions so CI and local runs agree; bump
# deliberately, not via @latest drift.
STATICCHECK_VERSION := 2025.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test race vet fmt lint generate generate-check profile fuzz-smoke bench bench-e2e-smoke smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every test of RACE_PKGS under the race detector, twice: -count=2 shakes
# out order dependence and proves the seeded fault plans replay. CI runs
# one group per job (`make race RACE_PKGS='$(RACE_SERVE)'`).
race:
	$(GO) test -race -count=2 -timeout 30m $(RACE_PKGS)

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

# Ten seconds of native fuzzing per target: the byte-level decoders — the
# checkpoint file (FuzzReadImage) and the store's manifest and chunks
# (FuzzReadCheckpoint, whose worker goroutines make coverage vary between
# runs — without -fuzzminimizetime 1x the engine sits in minimization) — and
# the expression evaluator against its scalar oracle on random trees
# (FuzzProgramMatchesScalar), the hash join against its nested-loop oracle
# on small tables with repeated and NULL keys (FuzzHashJoinMatchesNestedLoop),
# and the lineage-log scanner (FuzzScanLineage). The committed corpora run as
# plain tests in `make test`; this catches what only mutation finds. A
# crasher is written under the package's testdata/fuzz and fails the target.
fuzz-smoke:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzReadImage$$' -fuzztime 10s
	$(GO) test ./internal/blobstore -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzProgramMatchesScalar$$' -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzHashJoinMatchesNestedLoop$$' -fuzztime 10s
	$(GO) test ./internal/strategy -run '^$$' -fuzz '^FuzzScanLineage$$' -fuzztime 10s

# Every benchmark in the module, once: keeps benchmark code compiling and
# running. Timings are measured end to end by benchmark/ (BENCHMARK.json);
# allocation counts are pinned by tier-1 tests (internal/alloctest).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchmark/ is a module of its own (replace => ../), so `go build ./...`
# and `go test ./...` at the root never compile it: an API change that
# breaks it would be invisible to every target above. This vets it and runs
# its smoke test (every workload once, results checked against the golden
# digests) against the root module as it stands.
bench-e2e-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# End-to-end checks over real processes and HTTP: riveter-serve on a tiny
# TPC-H dataset (concurrent queries, serving metrics, a SIGTERM mid-load
# and a restart that resumes the work), then riveter-proxy in front of
# three riveter-serve instances (two SIGKILLs mid-load, a scale-to-zero
# round trip).
smoke:
	sh scripts/serve_smoke.sh
	sh scripts/proxy_smoke.sh

ci: build vet fmt lint test race fuzz-smoke bench bench-e2e-smoke smoke
