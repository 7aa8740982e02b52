# Tier-1 verification and the perf trajectory for the session runtime.
#
#   make verify         build + full test suite (the tier-1 gate)
#   make race           the substrate stress tests, the execution-mode
#                       runners (internal/equiv), the k-MC checker, the
#                       subtyping checker and the AMR search, whose storage
#                       free lists concurrent checks share, under the race
#                       detector
#   make bench          every benchmark suite in cmd/benchcheck's table,
#                       raw output to stderr, one box-annotated
#                       BENCH_<suite>.json per suite (channel, codegen,
#                       sched, net, check); SUITE=<name> runs one
#   make net-smoke      build cmd/sessnet and run the multi-process demo
#                       (one OS process per role over Unix sockets) with a
#                       short timeout as the hang detector — the CI
#                       net-smoke job
#   make bench-smoke    every suite at two iterations per benchmark,
#                       written to BENCH_smoke_<suite>.json and gated by
#                       cmd/benchcheck against the committed snapshot: the
#                       same columns, and allocs/op (B/op on the same box
#                       class) within tolerance — the CI bench job
#   make perf           the repository benchmark (BENCHMARK.json,
#                       perfbench/README.md): one WORKLOAD for SECONDS
#                       measured seconds from inputs drawn from SEED;
#                       TRACE=1 reports the per-layer metrics
#   make perf-smoke     every perfbench workload for 2 s, failing unless
#                       each run reports correct and zero failed ops — with
#                       perfbench's own vet and tests, the CI perfbench job
#   make chaos-smoke    the seeded fault-injection soak (internal/chaos):
#                       every registry protocol × fault-family seeds ×
#                       {blocking, stepped, scheduled}, with the sched and
#                       equiv suites, at -cpu 1,2,4, -timeout as the
#                       hang detector — the CI chaos job
#   make sessvet        build cmd/sessvet and run it over the whole module
#                       through `go vet -vettool` — the session-misuse
#                       gate (stateconsumed, statedropped, wouldblock,
#                       branchsum) must report zero findings
#   make lint           the CI lint job locally: staticcheck + govulncheck
#                       at the pinned versions (skipped with a loud warning
#                       when the tools are absent and cannot be installed,
#                       e.g. offline)
#   make generate       regenerate the sessgen packages (examples/gen)
#   make drift          the CI gate: regenerated sources must match what is
#                       checked in, and the tree must be gofmt-clean
#   make doccheck       every internal package must carry a package comment
#                       (the README/doc.go front-door gate)
#   make ci             the full CI pipeline locally: vet + sessvet +
#                       doccheck + verify + drift + race + chaos-smoke +
#                       net-smoke + bench-smoke + perfbench + lint, so a CI
#                       failure can be reproduced before pushing

GO ?= go
# bash for the recipes' here-strings; pipefail so a failing stage of a
# pipeline fails its recipe.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: verify race bench bench-smoke perf perf-smoke chaos-smoke net-smoke fuzz-smoke sessvet lint generate drift doccheck ci

# The staticcheck/govulncheck pins must match .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

verify:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race -timeout 600s ./internal/channel ./internal/session ./internal/sched ./internal/wire ./internal/netchan ./internal/equiv
	$(GO) test -race -short -timeout 600s ./internal/chaos ./internal/kmc ./internal/core ./internal/optimise

# chaos-smoke: the seeded fault-injection soak — every registry protocol ×
# seeds covering all four fault families × {blocking, stepped, scheduled},
# each cell asserted to land in the failure trichotomy (clean / typed
# timeout / typed abort) with no goroutine leaks. -timeout is the hang
# detector: a cell that neither completes nor fails typed stalls the binary
# past it and fails the job.
# -cpu 1,2,4 runs the soak at three GOMAXPROCS settings: more Ps than
# vCPUs is where a latency cliff on the deadline path shows, and the
# package alone at the default setting hides it. The scheduler and the
# execution-mode runners (internal/sched, internal/equiv) run at the same
# settings: their parks and wakes are what the soak's deadlines lean on.
# CHAOS_TEST_TIMEOUT scales with the seed sweep: the nightly workflow widens
# the sweep via the CHAOS_SOAK_SEEDS env knob (internal/chaos reads it) and
# raises this accordingly.
CHAOS_TEST_TIMEOUT ?= 300s
chaos-smoke:
	$(GO) test -count=1 -cpu 1,2,4 -timeout $(CHAOS_TEST_TIMEOUT) ./internal/chaos ./internal/sched ./internal/equiv

# bench / bench-smoke: cmd/benchcheck holds the suites table (packages,
# anchored -bench regex, required metric) and writes a snapshot only when
# its go test run succeeds.
bench:
	$(GO) run ./cmd/benchcheck $(if $(SUITE),-suite $(SUITE))

bench-smoke:
	$(GO) run ./cmd/benchcheck -smoke $(if $(SUITE),-suite $(SUITE))

# perf: the repository benchmark, built from this checkout by
# perfbench/run.sh (BENCHMARK.json declares its workloads and metrics,
# perfbench/README.md documents them). The last output line is the JSON
# result.
WORKLOAD ?= verify-corpus
SEED ?= 1
SECONDS ?= 10
TRACE ?= 0
perf:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

# perf-smoke: each perfbench workload for 2 s. Every op is reference-
# checked, so a run passes only when its last line reports "correct":true
# and "failed":0; timings are not gated. The workloads are the "name"s of
# BENCHMARK.json's "workloads" array, read with sed, so a workload added
# there is smoke-tested here without an edit.
perf-smoke:
	@workloads="$$(sed -n '/"workloads"/,/^[[:space:]]*\],\{0,1\}$$/s/^[[:space:]]*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)"; \
	if [ -z "$$workloads" ]; then echo "perf-smoke: no workloads in BENCHMARK.json"; exit 1; fi; \
	for w in $$workloads; do \
		last="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1)"; \
		echo "perf-smoke: $$w: $$last"; \
		if ! grep -q '"correct":true' <<<"$$last" || ! grep -q '"failed":0[,}]' <<<"$$last"; then \
			echo "perf-smoke: $$w reported failed ops or no result"; exit 1; fi; \
	done

# fuzz-smoke: the wire-format fuzzers — the Scribble parse→format→parse
# round trip and the wire codec encode→decode round trip — the whole-stack
# differential fuzzer (parse → project → k-MC → certified optimisation →
# codegen → three-mode execution → guided replay), and the codegen names
# fuzzer (arbitrary role and label names and sort bindings must be refused
# or generate source that parses), for FUZZ_TIME each. CI runs the default
# 30s per target; the nightly workflow stretches the same targets to
# minutes. FUZZ_MINIMIZE_TIME caps the time each target spends minimising
# one new interesting input (the go default is 60s, which a 30s budget can
# spend almost whole at 0 execs/s), so the budget goes to fuzzing.
FUZZ_TIME ?= 30s
FUZZ_MINIMIZE_TIME ?= 5s
FUZZ_FLAGS = -fuzztime $(FUZZ_TIME) -fuzzminimizetime $(FUZZ_MINIMIZE_TIME)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScribbleRoundTrip $(FUZZ_FLAGS) ./internal/scribble
	$(GO) test -run '^$$' -fuzz FuzzWireRoundTrip $(FUZZ_FLAGS) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzPipeline $(FUZZ_FLAGS) ./internal/protofuzz
	$(GO) test -run '^$$' -fuzz FuzzGenerateNames $(FUZZ_FLAGS) ./internal/codegen

# net-smoke: the CI network job — build cmd/sessnet, then run the
# multi-process demo (one OS process per role, Unix sockets) over every
# registry protocol with a short per-child deadline as the hang detector.
net-smoke:
	@mkdir -p .bin
	$(GO) build -o .bin/sessnet ./cmd/sessnet
	.bin/sessnet -all -net unix -timeout 60s

# sessvet: the session-misuse gate. The analyzers run through the real
# `go vet -vettool` protocol, exactly as CI does, so a diagnostic here
# reproduces byte-for-byte in the lint-session job. Zero findings is the
# bar: deliberate misuse in tests carries //sessvet:ignore comments.
sessvet:
	@mkdir -p .bin
	$(GO) build -o .bin/sessvet ./cmd/sessvet
	$(GO) vet -vettool=$(CURDIR)/.bin/sessvet ./... ./examples/...
	@echo "sessvet: zero session-misuse findings"

# lint: mirror the CI lint job locally. The tools are resolved from PATH
# first, then via `go install` at the pinned versions; when neither works
# (offline builder) the target warns loudly and skips instead of failing,
# because these checks gate CI, not local iteration.
lint:
	@set -e; \
	run_tool() { \
		name="$$1"; mod="$$2"; shift 2; \
		if command -v "$$name" >/dev/null 2>&1; then \
			echo "lint: running $$name"; "$$name" "$$@"; \
		elif $(GO) install "$$mod" >/dev/null 2>&1 && \
			command -v "$$name" >/dev/null 2>&1; then \
			echo "lint: running $$name (installed)"; "$$name" "$$@"; \
		else \
			echo "lint: WARNING: $$name unavailable and not installable (offline?); skipping" >&2; \
		fi; \
	}; \
	run_tool staticcheck honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	run_tool govulncheck golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# doccheck: the documentation front door must not regress — every internal
# package needs a package comment (go list exposes the synopsis as .Doc).
doccheck:
	@missing="$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...)"; \
	if [ -n "$$missing" ]; then \
		echo "doccheck: internal packages lacking a package comment:"; \
		echo "$$missing"; exit 1; fi
	@echo "doccheck: every internal package carries a package comment"

ci:
	$(GO) vet ./...
	$(MAKE) sessvet
	$(MAKE) doccheck
	$(MAKE) verify
	$(MAKE) drift
	$(MAKE) race
	$(MAKE) chaos-smoke
	$(MAKE) net-smoke
	$(MAKE) bench-smoke
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) perf-smoke
	$(MAKE) lint
	@echo "ci: all local gates passed"

generate:
	$(GO) generate ./...

drift: generate
	git diff --exit-code -- examples/gen
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:" $$fmtout; exit 1; fi
	@echo "no drift: generated sources match, tree is gofmt-clean"
