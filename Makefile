# Build/test/bench entry points. `make bench` records the run to
# BENCH_<date>.json (go test -json stream) so the perf trajectory of the
# repository is tracked in-tree over time.

GO        ?= go
DATE      := $(shell date +%Y-%m-%d)
BENCH_OUT ?= BENCH_$(DATE).json

.PHONY: all build test vet lint fuzz bench benchcmp transportbench search scenarios soak clean

# (test already vets, so all doesn't list vet separately)
all: build test

build:
	$(GO) build ./...

# vet + custom analyzers + race detector: the sweep engine's worker pool
# must stay race-clean, and the randomized conformance suites exercise it
# on every run. The scenario registry sweep rides along so `make test`
# always exercises the adversarial scenarios end to end, and `lint` runs
# the repository's own determinism/wire-contract analyzers (cmd/asymvet)
# alongside stock go vet. perfbench is a module of its own (it builds
# against this one through a replace directive), so `./...` does not
# reach it: it is vetted and tested separately, so that an API change
# here cannot break the benchmark unnoticed.
test: scenarios lint
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Repository-specific static analysis: the internal/lint analyzers
# (asymdeterminism, asymwire, asymsizer, asymbound, asymshare, asymgc —
# see internal/lint's package comment for the contracts) over the whole
# tree, plus stock go vet.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/asymvet ./...

# Coverage-guided fuzzing of the byte-level attack surface: the wire
# bounded-decode primitives, the tagged top-level decoder, and the
# transport frame reader / hello parser / batch-body walker. Each
# target's seed corpus also runs as a plain test in `make test`;
# FUZZTIME bounds each target here.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzReadPrimitives$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzParseHello$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME)

# Sweep every built-in adversarial scenario (internal/scenario) over a few
# seeds and check each one's declared Definition 4.1 properties; bounded to
# a few seconds.
scenarios:
	$(GO) run ./cmd/experiments -run scenarios

vet:
	$(GO) vet ./...

# Full benchmark sweep with allocation stats; the human-readable summary
# goes to stdout while the structured stream is preserved for tooling.
# The transport package rides along so the loopback-cluster throughput
# numbers (msgs/s, bytes/s at n=50) are part of the recorded trajectory.
bench:
	$(GO) test -json -run='^$$' -bench=. -benchmem -count=1 . ./internal/transport > $(BENCH_OUT)
	@grep -o '"Output":".*"' $(BENCH_OUT) | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//g' | grep '^Benchmark' || true
	@echo "wrote $(BENCH_OUT)"

# Transport-focused gate: the wire codec and framing/backpressure test
# suites under the race detector, then the n=50 loopback mesh benchmark.
transportbench:
	$(GO) test -race -count=1 ./internal/wire ./internal/transport
	$(GO) test -run='^$$' -bench=BenchmarkLoopbackCluster -benchmem -count=1 ./internal/transport

# Bounded-memory soak of the long-lived service layer: 500 decided waves
# (50x the original 10-wave experiment budget) under the rolling-churn
# scenario, race-clean, plus the snapshot-equivalence and churn-survival
# suites. The short 150-wave variant of the same tests already rides in
# `make test`; SOAK_WAVES overrides the length.
SOAK_WAVES ?= 500
soak:
	SOAK_WAVES=$(SOAK_WAVES) $(GO) test -race -count=1 -v \
		-run 'TestService(BoundedMemorySoak|SnapshotEquivalence|SurvivesChurn)' ./internal/service

# Diff two bench recordings; fails on >15% ns/op, allocs/op or B/op
# regressions, and on >15% drops of rate metrics (runs/s, events/s, the
# service benchmark's msgs/s, commits/s, tx/s). By default the two newest
# BENCH_*.json are compared; override with OLD=/NEW=, and the allocation
# gate with ALLOC_THRESHOLD= (percent; negative disables).
benchcmp:
	$(GO) run ./cmd/benchdiff $(if $(OLD),-old $(OLD)) $(if $(NEW),-new $(NEW)) $(if $(ALLOC_THRESHOLD),-allocthreshold $(ALLOC_THRESHOLD))

# Smoke-test the batch analysis search path: a parallel random-system
# sweep through quorum.AnalyzeSystem (the quorumtool -search mode).
search:
	$(GO) run ./cmd/quorumtool -system random -n 12 -search 50

# Remove only bench recordings that are not committed: historical
# BENCH_*.json are tracked in-tree as the perf trajectory, so deleting
# everything matching the glob (as this target once did) destroyed
# committed history.
clean:
	@for f in BENCH_*.json; do \
		[ -e "$$f" ] || continue; \
		if git ls-files --error-unmatch "$$f" >/dev/null 2>&1; then \
			echo "keeping tracked $$f"; \
		else \
			rm -f "$$f" && echo "removed $$f"; \
		fi; \
	done
