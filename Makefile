# Developer / CI entry points. `make ci` is what a pipeline should run:
# build, vet, the full test suite under the race detector (the beacon
# drain goroutine, circuit breaker, and journal are concurrency hot
# spots — plain `go test` is not enough), and the coverage gate.

GO ?= go

# Build version stamped into qtag_build_info (and probe User-Agents) via
# the linker: git describe when available, "dev" otherwise.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X qtag/internal/version.Version=$(VERSION)"

# Total statement coverage must not fall below the seed repository's
# baseline. Raise the floor when coverage improves; never lower it.
COVER_FLOOR ?= 82.0
COVER_PROFILE ?= coverage.out

# Pinned linter versions: `go run pkg@version` gives hermetic, lockfile-
# free pinning — bump deliberately, never track latest.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

# The allocation gate: the codec/key benchmarks and the four one-request
# ingest benchmarks (a 64-event binary POST down the -durable-sync chain
# to the WAL write: BenchmarkIngestBatch64 re-posts one body, the store's
# duplicate path; BenchmarkIngestBatch64FirstSeen posts fresh bodies, so
# every event is stored; BenchmarkIngestBatch64Observed does that with
# the aggregator and the detector attached as collector.Open attaches
# them, so every event also opens its impression, once for both; and
# BenchmarkIngestJSON1, the tag's one-event JSON POST down the same
# chain, fresh bodies, through the JSON decoder, which allocates
# nothing), whose allocs/op are deterministic enough to gate exactly
# (benches that go through encoding/json or maps vary across Go versions
# and are deliberately excluded), the committed baseline, and where the
# fresh run lands.
ALLOC_BENCH ?= BenchmarkBinaryCodec|BenchmarkEventKey|BenchmarkIngestBatch64|BenchmarkIngestJSON1
ALLOC_BASELINE ?= ALLOC_BASELINE.txt
ALLOC_FRESH ?= alloc-fresh.txt

.PHONY: all build vet test race microbench bench-smoke size cover chaos collide cluster-chaos trace-chaos overload-chaos fraud-chaos soak fuzz-smoke lint alloc-gate alloc-baseline ci

all: ci

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Microbenchmarks for the sharded store, the WAL group committer, the
# binary beacon codec and the GET /report render (at 5 000 and at 99
# campaigns with nothing ingested between renders, and at 5 000 with a
# poll period's fresh events between them: BenchmarkReportRender5000,
# BenchmarkReportRender99, BenchmarkReportRenderUnderIngest) — for
# measuring while you work. The collector's
# performance claims rest on `go run ./bench` (BENCHMARK.json,
# bench/README.md), which drives qtag-server out of process.
microbench:
	$(GO) test -run='^$$' -bench='BenchmarkStore|BenchmarkWALAppend|BenchmarkBinaryCodec|BenchmarkEventKey' -benchmem ./internal/beacon
	$(GO) test -run='^$$' -bench='BenchmarkReportRender' -benchmem ./internal/report

# The benchmark of BENCHMARK.json in its two-second form: builds
# qtag-server, spawns it out of process and drives all four workloads —
# 64-event POSTs down the -durable-sync chain (sink_batch_binary), one
# event per POST (tag_single_json), the async queue chain
# (report_under_ingest) and cluster.Node, which takes a request one
# event per call (cluster_forward) — each ending
# in the oracle: GET /report == a recompute over what was sent, before
# and after kill -9. Numbers from a smoke run mean nothing; it passes or
# fails on correctness. See bench/README.md.
bench-smoke:
	$(GO) run ./bench -smoke

# The sizes ROADMAP aims 2 and 3 track: non-test Go lines outside
# bench/, qtag-server's flags as `qtag-server -h` lists them (the listing
# cmd/qtag-server/testdata/flags.golden pins), and what the store keeps
# per event and the observers per impression (TestMemoryBudgets' lines).
# The first two are a ratchet: the target fails when either is over
# SIZE_BASELINE.txt. Lower the baseline when a change shrinks them; a
# change that raises it says why in CHANGES.md. The memory lines are
# print-only.
SIZE_BASELINE ?= SIZE_BASELINE.txt

size:
	@lines=$$(find . -path ./bench -prune -o -path './.*' -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l); \
	flags=$$($(GO) run ./cmd/qtag-server -h 2>&1 | grep -c '^  -'); \
	echo "non-test Go lines outside bench/: $$lines"; \
	echo "qtag-server flags: $$flags"; \
	awk -v lines="$$lines" -v flags="$$flags" -v file="$(SIZE_BASELINE)" ' \
		$$1 == "lines" { seen++; if (lines + 0 > $$2 + 0) { print "FAIL: " lines " non-test Go lines, over the baseline " $$2 " in " file; bad = 1 } } \
		$$1 == "flags" { seen++; if (flags + 0 > $$2 + 0) { print "FAIL: " flags " qtag-server flags, over the baseline " $$2 " in " file; bad = 1 } } \
		END { if (flags + 0 < 1) { print "FAIL: qtag-server -h listed no flags"; bad = 1 } \
			if (seen != 2) { print "FAIL: " file " must hold one lines and one flags entry"; bad = 1 } \
			exit bad }' $(SIZE_BASELINE)
	@$(GO) test -count=1 -run '^TestMemoryBudgets$$' -v ./internal/beacon 2>&1 | \
		sed -n 's|^.*layout_test.go:[0-9]*: \(.* B/[a-z]*\)$$|memory: \1|p'

# Crash-safety sweep: the WAL, the crash-point harness, and the
# durability layer's torn-write / page-cache-loss / bit-rot / ENOSPC
# recovery tests, under the race detector.
chaos:
	$(GO) test -race -run 'Crash|Torn|Quarantine|ENOSPC|Snapshot|Recover|Durable|Flip' \
		./internal/wal/... ./internal/faults/... ./internal/beacon/...

# Forced hash collisions: the observers' open-impression tables
# (internal/imptable) with every key hashed to one of four values, so
# that the equivalence, eviction, replay and report suites of the
# packages that hold such tables — and of the production assembly
# (internal/collector), whose max-open, TTL and sync/async path tests
# run both observers joined — run on collision chains throughout and
# only exact key comparison tells impressions apart.
collide:
	QTAG_FORCE_COLLISIONS=1 $(GO) test -count=1 ./internal/imptable/... ./internal/aggregate/... \
		./internal/detect/... ./internal/report/... ./internal/beacon/... ./internal/collector/...

# Cluster chaos: a 3-node in-process cluster of the stack qtag-server
# runs (collectortest.StartHarness: three collector.Open stacks on real
# HTTP servers, real WALs, real hint journals) through the whole-node
# kill/restart sweep, partition heal, federated degradation, and
# fault-injected forwarding suites — all under the race detector. Proves the cluster ack
# contract: acked-by-any-live-node ⊆ recovered-cluster-wide, zero
# duplicates, including hinted-handoff replay.
cluster-chaos:
	$(GO) test -race -count=1 -run 'TestCluster|TestForwarding|TestHintLog' \
		./internal/cluster/...

# Trace-propagation chaos: the same three shipped stacks assert every
# acked beacon's distributed trace is ONE connected tree — no orphan spans, no
# duplicate span IDs, a store.apply leaf — across retry storms,
# handoff-then-drain, and same-address restarts, under the race
# detector. Part of `make ci`: tracing that silently drops context under
# faults is worse than no tracing.
trace-chaos:
	$(GO) test -race -count=1 -run 'TestTracePropagation' \
		./internal/cluster/...

# Overload chaos: the three shipped stacks under a 10× concurrency ramp
# with concurrent partition-heal drain storms and /report + /debug
# hammers, under the race detector. Proves the admission contract: zero
# acked-beacon loss, goodput held within a fixed band of baseline,
# low-priority classes shed first, and every node back to /readyz 200
# within a bounded window once the load subsides.
overload-chaos:
	$(GO) test -race -count=1 -run 'TestOverload' ./internal/cluster/...

# Fraud-detection chaos: the adversarial actor scenarios through the
# full HTTP ingest path of the production assembly (collector.Open),
# scored against the lifecycle-tracer oracle with per-scenario
# precision/recall floors; detector equivalence (order-insensitive,
# concurrent, WAL-crash-recovery) and the mid-campaign server restart
# that must not move a single score — all under the race detector. See
# DESIGN.md §15.
fraud-chaos:
	$(GO) test -race -count=1 -run 'TestFraud|TestDetect|TestTornWALTail|Actor|TestFaultDuplicate' \
		./internal/detect/... ./internal/campaign/...

# Concurrency soak: the sharded store + group-commit WAL driven through
# the full HTTP server by concurrent clients, with store/WAL/counter
# reconciliation; GET /report read beside ingest on the production
# assembly and the assembly's own sync/async/drain proofs; plus the
# sharded-vs-seed and group-commit-vs-per-record equivalence property
# tests — all under the race detector.
soak:
	$(GO) test -race -count=1 -run 'Soak|Equivalence|ShardsRounding' \
		./internal/beacon/... ./internal/report/... ./internal/aggregate/...
	$(GO) test -race -count=1 ./internal/collector/...

# Ten seconds of fuzzing each on the WAL record codec, the JSON event
# decoder and the ingest handler (both against encoding/json), the
# fraud detector's observe path, and the report encoder (its string and
# float appenders and the rendered GET /report, each against
# encoding/json) — enough to catch a framing, checksum, batch-atomicity,
# decode-equivalence, score-bound or byte-identity regression without
# stalling the pipeline. (One -fuzz pattern per invocation: go test
# rejects fuzzing multiple targets at once.)
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzDecodeEvents -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzHandleEvents -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzBinaryCodec -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzStoreArena -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzDetectObserve -fuzztime=10s ./internal/detect
	$(GO) test -run='^$$' -fuzz=FuzzReportJSON -fuzztime=10s ./internal/report

# The benchmark harness (package main under bench/) is left out: it is
# exercised out of process by bench-smoke, and since PR 13 added it to
# ./... its spawn-and-drive code pulled the total below a floor set for
# the collector and the simulator.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) $$($(GO) list ./... | grep -v '^qtag/bench$$')
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v got="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit (got + 0 < floor + 0) ? 1 : 0 }' \
		|| { echo "FAIL: coverage $$total% is below the floor $(COVER_FLOOR)%"; exit 1; }

# Static analysis + known-vulnerability scan, both version-pinned above.
# `go run pkg@version` downloads on first use (cached afterwards), so an
# air-gapped checkout that has never fetched the tools skips with a
# warning instead of failing on the download — CI always has the network
# and therefore always enforces.
lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		echo "staticcheck:"; $(GO) run $(STATICCHECK) ./...; \
	else \
		echo "WARN: skipping staticcheck ($(STATICCHECK) not fetchable — offline?)"; \
	fi
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		echo "govulncheck:"; $(GO) run $(GOVULNCHECK) ./...; \
	else \
		echo "WARN: skipping govulncheck ($(GOVULNCHECK) not fetchable — offline?)"; \
	fi

# Allocation regression gate — blocking, per-PR. Unlike nanoseconds,
# allocs/op is deterministic (for a given Go version), so a fixed
# -benchtime=1000x run is cheap and exact: any benchmark whose allocs/op
# rises above the committed ALLOC_BASELINE.txt fails the build. This is
# what keeps the zero-allocation decode path at zero.
alloc-gate:
	$(GO) test -run='^$$' -bench='$(ALLOC_BENCH)' -benchmem -benchtime=1000x -count=1 \
		./internal/beacon > $(ALLOC_FRESH) || { cat $(ALLOC_FRESH); exit 1; }
	@cat $(ALLOC_FRESH)
	$(GO) run ./scripts/benchgate.go -allocs -baseline $(ALLOC_BASELINE) -fresh $(ALLOC_FRESH)

# Deliberately refresh the committed allocation baseline (review the
# diff before committing — an unexplained increase is a regression, not
# a new baseline).
alloc-baseline:
	$(GO) test -run='^$$' -bench='$(ALLOC_BENCH)' -benchmem -benchtime=1000x -count=1 \
		./internal/beacon > $(ALLOC_BASELINE)
	@cat $(ALLOC_BASELINE)

# The blocking pipeline: correctness, analysis, the size ratchet,
# coverage, crash-safety, trace propagation, allocation
# regressions, and the out-of-process benchmark's smoke run (the real
# binary on all four workloads, passed or failed by the oracle, never by
# a timing). soak, the cluster /
# overload / fraud chaos sweeps and fuzz-smoke run as a separate
# non-blocking CI job (see .github/workflows/ci.yml).
ci: build vet lint size race cover chaos collide trace-chaos alloc-gate bench-smoke
