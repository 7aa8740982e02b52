# Tier-1 verification and the perf trajectory for the session runtime.
#
#   make verify         build + full test suite (the tier-1 gate)
#   make race           the substrate stress tests and the execution-mode
#                       runners (internal/equiv) under the race detector
#   make bench          channel + session + Session.Run benchmarks with
#                       -benchmem, raw output to stderr, parsed JSON to
#                       BENCH_channel.json (compare against CHANGES.md)
#   make bench-codegen  generated-API vs monitored head-to-heads (send/recv
#                       microbench + end-to-end streaming and FFT) and the
#                       cost of codegen.Generate itself, parsed JSON to
#                       BENCH_codegen.json
#   make bench-sched    multi-session scheduler throughput (sessions/sec vs
#                       session count 1→100k at GOMAXPROCS 1/2/4, plus the
#                       2-goroutines-per-session baseline), parsed JSON to
#                       BENCH_sched.json
#   make bench-net      network-vs-ring substrate columns (send+recv,
#                       ping-pong and batched-64 over same-host Unix
#                       sockets and loopback TCP against the in-memory
#                       ring), parsed JSON to BENCH_net.json
#   make net-smoke      build cmd/sessnet and run the multi-process demo
#                       (one OS process per role over Unix sockets) with a
#                       short timeout as the hang detector — the CI
#                       net-smoke job
#   make bench-smoke    all bench targets at two iterations per benchmark,
#                       then cmd/benchcheck asserts the JSON is well-formed,
#                       every expected column (including FFT×rumpsteak-gen
#                       and the sched matrix) is present, and the
#                       deterministic memory metrics have not regressed
#                       against the committed snapshots — the CI bench job
#   make perf           the repository benchmark (BENCHMARK.json,
#                       perfbench/README.md): one WORKLOAD for SECONDS
#                       measured seconds from inputs drawn from SEED;
#                       TRACE=1 reports the per-layer metrics
#   make perf-smoke     every perfbench workload for 2 s, failing unless
#                       each run reports correct and zero failed ops — with
#                       perfbench's own vet and tests, the CI perfbench job
#   make chaos-smoke    the seeded fault-injection soak (internal/chaos):
#                       every registry protocol × fault-family seeds ×
#                       {blocking, stepped, scheduled}, -timeout as the
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
# bash + pipefail: a failing benchmark run must fail `make bench`, not let
# the benchjson stage mask it and overwrite BENCH_channel.json.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# The head-to-head families: the substrate tables (BenchmarkSendRecv/*,
# BenchmarkPingPong/*), batched paths, endpoint hot paths, monitor cost and
# the Session.Run end-to-end streaming experiment. The pre-PR single-name
# benchmarks (BenchmarkQueuePingPong, ...) duplicate table entries and are
# excluded so BENCH_channel.json holds one entry per data point. (No '/' in
# the pattern: go test splits -bench patterns on '/' into per-level regexes.)
BENCH_PATTERN ?= BenchmarkSendRecv|BenchmarkPingPong|BenchmarkRingBatch|BenchmarkNetwork|BenchmarkSessionRunStreaming|BenchmarkSessionSendRecvDeadline|BenchmarkMonitor
BENCH_PKGS ?= ./internal/channel ./internal/session ./internal/bench

# The codegen head-to-head: the monitor-free generated-API hot path against
# the monitored endpoint (BenchmarkSendRecvMonitored vs Unchecked, raw
# Unmonitored as the route-lookup baseline) and against the scheduler's
# stepper, which walks the verified machine as its own monitor
# (BenchmarkStepperStep: one streamed value, four Steps), the end-to-end
# streaming pair (BenchmarkGenRunStreaming vs BenchmarkSessionRunStreaming),
# the generated FFT column (BenchmarkGenRunFFT: eight workers exchanging
# whole vec<complex128> columns through the typed API), and the generator
# itself (BenchmarkGenerate: codegen.Generate on the Streaming and FFT
# machines, whose gated allocs/op would catch a return of a whole-package
# re-print).
CODEGEN_BENCH_PATTERN ?= BenchmarkSendRecvMonitored|BenchmarkSendRecvUnchecked|BenchmarkSendRecvUnmonitored|BenchmarkStepperStep|BenchmarkGenRunStreaming|BenchmarkGenRunFFT|BenchmarkSessionRunStreaming|BenchmarkGenerate
CODEGEN_BENCH_PKGS ?= ./internal/session ./internal/bench ./internal/codegen

# The multi-session scheduling axis: sessions/sec over the sched worker
# pool — the forking matrix, the pooled matrix with its steal-on/steal-off
# ablation and 1M-session row, the zero-alloc steady-state column — against
# the per-session-goroutines baseline.
SCHED_BENCH_PATTERN ?= BenchmarkSchedThroughput|BenchmarkSchedPooledThroughput|BenchmarkSchedPooledSteady|BenchmarkSchedGoroutineBaseline
SCHED_BENCH_PKGS ?= ./internal/bench

# The network substrate axis: one message, a round trip and a 64-message
# batch over Unix sockets and loopback TCP against the in-memory ring the
# session layer wires by default.
NET_BENCH_PATTERN ?= BenchmarkNetSendRecv|BenchmarkNetPingPong|BenchmarkNetBatch64
NET_BENCH_PKGS ?= ./internal/netchan

# The static-verification scalability axis (internal/protofuzz/scale_test):
# reflexive core.Check over 1200-state chains, k-MC over 1000-state
# projected systems, the AMR search at deep pipelining unrolls, and the
# full differential pipeline on one oversized cell.
CHECK_BENCH_PATTERN ?= BenchmarkCheckScale|BenchmarkKmcScale|BenchmarkOptimiseScale|BenchmarkPipelineDeep
CHECK_BENCH_PKGS ?= ./internal/protofuzz

# Extra flags for the bench targets; bench-smoke passes -benchtime 2x — fast,
# but with the 1-iteration sizing probe go test runs before any multi-
# iteration benchmark, so one-time lazy setup lands in the probe instead of
# inflating the gated allocs/op of the first measured iteration.
BENCH_FLAGS ?=
# Output files. bench-smoke redirects to BENCH_smoke_*.json (gitignored) so
# a local `make ci` never clobbers the committed full-length snapshots with
# single-iteration data.
BENCH_OUT ?= BENCH_channel.json
CODEGEN_BENCH_OUT ?= BENCH_codegen.json
SCHED_BENCH_OUT ?= BENCH_sched.json
NET_BENCH_OUT ?= BENCH_net.json
CHECK_BENCH_OUT ?= BENCH_check.json

.PHONY: verify race bench bench-codegen bench-sched bench-net bench-check bench-smoke perf perf-smoke chaos-smoke net-smoke fuzz-smoke sessvet lint generate drift doccheck ci

# The staticcheck/govulncheck pins must match .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

verify:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race -timeout 600s ./internal/channel ./internal/session ./internal/sched ./internal/wire ./internal/netchan ./internal/equiv
	$(GO) test -race -short -timeout 600s ./internal/chaos

# chaos-smoke: the seeded fault-injection soak — every registry protocol ×
# seeds covering all four fault families × {blocking, stepped, scheduled},
# each cell asserted to land in the failure trichotomy (clean / typed
# timeout / typed abort) with no goroutine leaks. -timeout is the hang
# detector: a cell that neither completes nor fails typed stalls the binary
# past it and fails the job.
# CHAOS_TEST_TIMEOUT scales with the seed sweep: the nightly workflow widens
# the sweep via the CHAOS_SOAK_SEEDS env knob (internal/chaos reads it) and
# raises this accordingly.
CHAOS_TEST_TIMEOUT ?= 300s
chaos-smoke:
	$(GO) test -count=1 -timeout $(CHAOS_TEST_TIMEOUT) ./internal/chaos

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_FLAGS) -timeout 1800s $(BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

bench-codegen:
	$(GO) test -run '^$$' -bench '$(CODEGEN_BENCH_PATTERN)' -benchmem $(BENCH_FLAGS) -timeout 1800s $(CODEGEN_BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $(CODEGEN_BENCH_OUT)
	@echo "wrote $(CODEGEN_BENCH_OUT)"

bench-sched:
	$(GO) test -run '^$$' -bench '$(SCHED_BENCH_PATTERN)' -benchmem $(BENCH_FLAGS) -timeout 1800s $(SCHED_BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $(SCHED_BENCH_OUT)
	@echo "wrote $(SCHED_BENCH_OUT)"

bench-net:
	$(GO) test -run '^$$' -bench '$(NET_BENCH_PATTERN)' -benchmem $(BENCH_FLAGS) -timeout 1800s $(NET_BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $(NET_BENCH_OUT)
	@echo "wrote $(NET_BENCH_OUT)"

bench-check:
	$(GO) test -run '^$$' -bench '$(CHECK_BENCH_PATTERN)' -benchmem $(BENCH_FLAGS) -timeout 1800s $(CHECK_BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $(CHECK_BENCH_OUT)
	@echo "wrote $(CHECK_BENCH_OUT)"

# bench-smoke: the CI bench job. Two iterations per benchmark keeps it fast
# (and the sizing probe absorbs one-time setup allocations, see BENCH_FLAGS);
# benchcheck then fails the pipeline if a JSON file is malformed, an
# expected column is missing — including the FFT×rumpsteak-gen row that
# closes the Fig. 6 coverage gap — or the deterministic memory metrics
# regressed against the committed snapshots (-baseline: allocs/op is gated
# on every box, B/op only when the box class matches the snapshot's; timing
# is never gated at smoke iteration counts). Smoke output goes to BENCH_smoke_*.json:
# the committed BENCH_channel.json / BENCH_codegen.json stay the
# full-length snapshots.
bench-smoke:
	$(MAKE) bench BENCH_FLAGS='-benchtime 2x' BENCH_OUT=BENCH_smoke_channel.json
	$(MAKE) bench-codegen BENCH_FLAGS='-benchtime 2x' CODEGEN_BENCH_OUT=BENCH_smoke_codegen.json
	$(MAKE) bench-sched BENCH_FLAGS='-benchtime 2x' SCHED_BENCH_OUT=BENCH_smoke_sched.json
	$(MAKE) bench-net BENCH_FLAGS='-benchtime 2x' NET_BENCH_OUT=BENCH_smoke_net.json
	$(MAKE) bench-check BENCH_FLAGS='-benchtime 2x' CHECK_BENCH_OUT=BENCH_smoke_check.json
	$(GO) run ./cmd/benchcheck -file BENCH_smoke_channel.json \
		-baseline BENCH_channel.json \
		-expect BenchmarkSendRecv -expect BenchmarkPingPong \
		-expect BenchmarkSessionRunStreaming/ring -expect BenchmarkSessionRunStreaming/queue \
		-expect BenchmarkSessionSendRecvDeadline/unarmed \
		-expect BenchmarkSessionSendRecvDeadline/armed \
		-expect BenchmarkMonitor
	$(GO) run ./cmd/benchcheck -file BENCH_smoke_codegen.json \
		-baseline BENCH_codegen.json \
		-expect BenchmarkSendRecvMonitored -expect BenchmarkSendRecvUnchecked \
		-expect BenchmarkSendRecvUnmonitored -expect BenchmarkStepperStep \
		-expect BenchmarkGenRunStreaming -expect BenchmarkGenRunFFT \
		-expect BenchmarkSessionRunStreaming \
		-expect BenchmarkGenerate/Streaming -expect BenchmarkGenerate/FFT
	$(GO) run ./cmd/benchcheck -file BENCH_smoke_sched.json -metric sessions/sec \
		-baseline BENCH_sched.json \
		-expect 'SchedThroughput/sessions=1/procs=1' \
		-expect 'SchedThroughput/sessions=100/procs=2' \
		-expect 'SchedThroughput/sessions=10000/procs=2' \
		-expect 'SchedThroughput/sessions=100000/procs=4' \
		-expect 'SchedPooledThroughput/sessions=10000/procs=1/steal=on' \
		-expect 'SchedPooledThroughput/sessions=100000/procs=1/steal=off' \
		-expect 'SchedPooledThroughput/sessions=1000000/procs=1/steal=on' \
		-expect SchedPooledSteady \
		-expect SchedGoroutineBaseline
	$(GO) run ./cmd/benchcheck -file BENCH_smoke_net.json \
		-baseline BENCH_net.json \
		-expect BenchmarkNetSendRecv/ring -expect BenchmarkNetSendRecv/unix \
		-expect BenchmarkNetSendRecv/tcp \
		-expect BenchmarkNetPingPong/ring -expect BenchmarkNetPingPong/tcp \
		-expect BenchmarkNetBatch64/ring -expect BenchmarkNetBatch64/unix \
		-expect BenchmarkNetBatch64/tcp
	$(GO) run ./cmd/benchcheck -file BENCH_smoke_check.json \
		-baseline BENCH_check.json \
		-expect 'CheckScale/states=1201' \
		-expect 'KmcScale/states=1001' \
		-expect 'OptimiseScale/sends=8' \
		-expect BenchmarkPipelineDeep

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
# and "failed":0; timings are not gated.
perf-smoke:
	@for w in mux-inproc pingpong-unix verify-corpus; do \
		last="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1)"; \
		echo "perf-smoke: $$w: $$last"; \
		if ! grep -q '"correct":true' <<<"$$last" || ! grep -q '"failed":0[,}]' <<<"$$last"; then \
			echo "perf-smoke: $$w reported failed ops or no result"; exit 1; fi; \
	done

# fuzz-smoke: the wire-format fuzzers — the Scribble parse→format→parse
# round trip and the wire codec encode→decode round trip — plus the
# whole-stack differential fuzzer (parse → project → k-MC → certified
# optimisation → codegen → three-mode execution → guided replay), for
# FUZZ_TIME each. CI runs the default 30s per target; the nightly workflow
# stretches the same targets to minutes.
FUZZ_TIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScribbleRoundTrip -fuzztime $(FUZZ_TIME) ./internal/scribble
	$(GO) test -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime $(FUZZ_TIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzPipeline -fuzztime $(FUZZ_TIME) ./internal/protofuzz

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
