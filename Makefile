# The CI workflow (.github/workflows/ci.yml) invokes these same targets,
# so a green `make ci` locally means a green pipeline.
#
# Target map:
#   build / test / race  - compile and run the suite (plain, then -race)
#   lint                 - go vet + gofmt + staticcheck (skipped if absent)
#   bench                - SMOKE gate: one iteration of every benchmark, so
#                          bench_test.go always compiles and executes; not a
#                          measurement
#   benchcore            - MEASURED core benchmarks: stepper cycles/sec at
#                          1/2/4/8 cores + streaming replay, best-of-3 per
#                          row, gated against the committed BENCH_CORE.json
#                          (fail under (1-CORE_TOLERANCE) x baseline)
#   benchcore-baseline   - re-measure and overwrite BENCH_CORE.json
#   smoke                - trimmed paperbench run with shape checks
#   servebench           - colserved under load (BENCH_PR3.json)
#   cachebench           - durable colserved under a zipfian repeated-spec
#                          load: memoization hit ratio + cached-path
#                          latency (BENCH_PR7.json)
#   recovery             - kill -9 a durable colserved mid-work, restart,
#                          prove no accepted job is lost or duplicated
#   fabric               - distributed colserved gates: ring/coordinator
#                          unit tests under -race, then the chaos test
#                          (3 real workers, SIGKILL one mid-sweep, every
#                          accepted job still finishes; a joining worker
#                          remaps only ~1/N of the keyspace)
#   fabricbench          - coordinator + 3 durable workers under zipfian
#                          colload -fabric; cluster ledger reconciliation
#                          (BENCH_PR8.json)
#   conformance / cover  - differential oracle matrix + coverage gate
#   multicore            - MSI -race sweep, -jobs determinism
#   watch                - live-inspection smoke: colserved streams SSE
#                          occupancy frames for a running job, retains
#                          them for time travel, and colwatch replays a
#                          deterministic colsim frame dump
#   ci                   - everything CI runs

GO ?= go

.PHONY: build test race lint bench benchcore benchcore-baseline smoke servebench cachebench recovery fabric fabricbench conformance cover multicore watch ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# staticcheck is pinned in CI (see ci.yml); locally it runs when installed
# and is skipped with a note otherwise, so `make lint` never needs network.
STATICCHECK_VERSION ?= 2025.1.1
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# One iteration of every benchmark: a smoke gate that keeps bench_test.go
# compiling and executing, not a measurement. Measured runs live in
# benchcore.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Measured core benchmarks: the flat-state hot path's regression gate.
# paperbench -corebench runs the stepper at 1/2/4/8 cores plus the
# streaming replay pipeline, keeps the best of CORE_REPS repetitions per
# row (noisy-runner-safe), writes the snapshot to BENCH_CORE.new.json and
# fails if any row drops more than CORE_TOLERANCE below the committed
# BENCH_CORE.json. GOAMD64=v3 is used when the host supports AVX2, matching
# how the committed baseline was produced.
CORE_TOLERANCE ?= 0.25
CORE_REPS      ?= 3
BENCH_GOAMD64  := $(shell grep -qm1 avx2 /proc/cpuinfo 2>/dev/null && echo v3)
benchcore:
	GOAMD64=$(BENCH_GOAMD64) $(GO) build -o /tmp/paperbench-core ./cmd/paperbench
	/tmp/paperbench-core -corebench BENCH_CORE.new.json -corebaseline BENCH_CORE.json \
		-coretolerance $(CORE_TOLERANCE) -corereps $(CORE_REPS)

# Re-measure the committed baseline in place (run on a quiet machine, then
# commit the new BENCH_CORE.json).
benchcore-baseline:
	GOAMD64=$(BENCH_GOAMD64) $(GO) build -o /tmp/paperbench-core ./cmd/paperbench
	/tmp/paperbench-core -corebench BENCH_CORE.json -corereps $(CORE_REPS)

# Trimmed end-to-end run of the paper's full evaluation, including the
# shape checks against the paper's qualitative claims.
smoke:
	$(GO) run ./cmd/paperbench -quick

# Serving benchmark: boot colserved, hammer it with colload, verify the
# metrics ledger closes, and leave the report in BENCH_PR3.json.
SERVE_ADDR    ?= 127.0.0.1:8344
SERVE_CLIENTS ?= 200
SERVE_SECS    ?= 5s
servebench:
	$(GO) build -o /tmp/colserved ./cmd/colserved
	$(GO) build -o /tmp/colload ./cmd/colload
	/tmp/colserved -addr $(SERVE_ADDR) -quiet & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null; wait $$pid' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(SERVE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	/tmp/colload -base http://$(SERVE_ADDR) -c $(SERVE_CLIENTS) -duration $(SERVE_SECS) -out BENCH_PR3.json

# Memoization benchmark: the same loop against a durable server with a
# zipfian repeated-spec mix — the report shows the result-cache hit ratio
# and how much latency the cached path shaves off the simulated one.
CACHE_ADDR    ?= 127.0.0.1:8345
CACHE_CLIENTS ?= 64
CACHE_SECS    ?= 10s
CACHE_MIX     ?= 16
cachebench:
	$(GO) build -o /tmp/colserved ./cmd/colserved
	$(GO) build -o /tmp/colload ./cmd/colload
	rm -rf /tmp/colserved-cachebench
	/tmp/colserved -addr $(CACHE_ADDR) -data-dir /tmp/colserved-cachebench -quiet & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null; wait $$pid' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(CACHE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	/tmp/colload -base http://$(CACHE_ADDR) -c $(CACHE_CLIENTS) -duration $(CACHE_SECS) -spec-mix $(CACHE_MIX) -out BENCH_PR7.json

# Crash-recovery gate: the kill -9 integration test builds the real
# daemon (with -race), SIGKILLs it with queued and in-flight jobs, and
# asserts the restart finishes every accepted job exactly once.
recovery:
	$(GO) test -race -run TestKillDashNineRecovery -v ./cmd/colserved

# Distributed-fabric gates: the consistent-hash ring, registry, and
# coordinator protocol under -race (including in-process steal and
# cached-relay tests), the colload digest-retry and -fabric load tests,
# then the chaos integration test — a real coordinator plus three
# race-built worker daemons, one SIGKILLed while its sweep is
# demonstrably running: every accepted job must still reach done (stolen
# onto ring successors, zero steal failures) and a fourth worker joining
# afterwards may remap only ~1/N of the keyspace.
fabric:
	$(GO) test -race ./internal/fabric ./cmd/colload
	$(GO) test -race -run TestFabricChaos -v ./cmd/colserved

# Fabric benchmark: a coordinator with three durable workers under a
# zipfian colload -fabric run; the report (BENCH_PR8.json) carries the
# per-node job counts and the cross-node ledger reconciliation.
FABRIC_ADDR    ?= 127.0.0.1:8347
FABRIC_CLIENTS ?= 64
FABRIC_SECS    ?= 10s
FABRIC_MIX     ?= 16
fabricbench:
	$(GO) build -o /tmp/colserved ./cmd/colserved
	$(GO) build -o /tmp/colload ./cmd/colload
	rm -rf /tmp/colserved-fabric
	/tmp/colserved -role coordinator -addr $(FABRIC_ADDR) & \
	cpid=$$!; \
	wpids=""; \
	trap 'kill -TERM $$wpids $$cpid 2>/dev/null; wait $$wpids $$cpid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(FABRIC_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	port=8348; \
	for w in w1 w2 w3; do \
		/tmp/colserved -role worker -join http://$(FABRIC_ADDR) -addr 127.0.0.1:$$port \
			-node $$w -data-dir /tmp/colserved-fabric/$$w -quiet & \
		wpids="$$wpids $$!"; \
		port=$$((port + 1)); \
	done; \
	for i in $$(seq 1 100); do \
		n=$$(curl -fsS http://$(FABRIC_ADDR)/fabric/v1/nodes 2>/dev/null \
			| python3 -c "import json,sys; print(sum(1 for w in json.load(sys.stdin)['workers'] if w['alive']))" 2>/dev/null || echo 0); \
		[ "$$n" = 3 ] && break; sleep 0.1; \
	done; \
	/tmp/colload -base http://$(FABRIC_ADDR) -fabric -c $(FABRIC_CLIENTS) -duration $(FABRIC_SECS) -spec-mix $(FABRIC_MIX) -out BENCH_PR8.json

# Differential conformance: the naive reference model in internal/oracle is
# driven in lockstep with the production stack over the committed golden
# traces plus CONFORM_N seeded random trace/config combinations, all under
# the race detector, plus CONFORM_MC seeded multicore machines run through
# both the checked Step loop and the batched RunContext loop and compared
# on every counter and cache line. A failing run minimizes the case to
# conform-repro.json.
CONFORM_N    ?= 1000
CONFORM_MC   ?= 500
CONFORM_SEED ?= 1
conformance:
	$(GO) test -race ./internal/oracle ./internal/conform ./cmd/conform
	$(GO) build -race -o /tmp/conform ./cmd/conform
	/tmp/conform -n $(CONFORM_N) -mc $(CONFORM_MC) -seed $(CONFORM_SEED) -golden internal/conform/testdata/golden

# Multicore gates: the MSI coherence protocol under -race (including the
# seeded random invariant sweep and the run-loop equivalence tests), and
# the stepper's determinism — the interference study must be byte-identical
# at any -jobs value.
multicore:
	$(GO) test -race ./internal/multicore
	$(GO) build -o /tmp/paperbench ./cmd/paperbench
	/tmp/paperbench -experiment multicore -jobs 1 > /tmp/mc-serial.txt
	/tmp/paperbench -experiment multicore -jobs 8 > /tmp/mc-parallel.txt
	cmp /tmp/mc-serial.txt /tmp/mc-parallel.txt

# Live-inspection smoke. Three legs: colsim dumps a deterministic frame
# sequence that colwatch's scrub mode replays (line-mode keys, so no tty
# needed); a colserved with frame capture on serves SSE frames for a
# job that is still running when the stream attaches, ending with a
# terminal event; and the retained frames stay scrubbable over the
# time-travel endpoint after the job is done.
WATCH_ADDR ?= 127.0.0.1:8353
watch:
	$(GO) build -o /tmp/colserved ./cmd/colserved
	$(GO) build -o /tmp/colsim ./cmd/colsim
	$(GO) build -o /tmp/colwatch ./cmd/colwatch
	/tmp/colsim -cores 2 -synth random -n 100000 -inspect-every 4096 -inspect-out /tmp/watch-frames.jsonl > /dev/null
	test -s /tmp/watch-frames.jsonl
	printf 'l\nr\nG\nq\n' | /tmp/colwatch -file /tmp/watch-frames.jsonl -replay > /dev/null
	set -e; \
	/tmp/colserved -addr $(WATCH_ADDR) -inspect-every 4096 -quiet & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null; wait $$pid' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(WATCH_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	id=$$(curl -fsS -X POST http://$(WATCH_ADDR)/v1/simulate \
		-d '{"label":"watch-smoke","machine":{"sets":16,"ways":4},"workload":{"name":"stream","size_bytes":1048576,"passes":12}}' \
		| python3 -c "import json,sys; print(json.load(sys.stdin)['id'])"); \
	curl -fsS -N --max-time 60 http://$(WATCH_ADDR)/v1/jobs/$$id/inspect > /tmp/watch-sse.txt; \
	grep -q "event: frame" /tmp/watch-sse.txt; \
	grep -q '"reason":"done"' /tmp/watch-sse.txt; \
	curl -fsS "http://$(WATCH_ADDR)/v1/jobs/$$id/inspect/frames" \
		| python3 -c "import json,sys; d=json.load(sys.stdin); assert d['count'] > 0 and d['frames'], d"; \
	printf 'r\nq\n' | /tmp/colwatch -server http://$(WATCH_ADDR) -job $$id -replay > /dev/null; \
	echo "watch: SSE frames, time travel, and colwatch replay OK"

# Coverage gate: the column-cache core packages plus the durability layer
# (WAL + result cache) must stay at or above 85% statement coverage.
COVER_PKGS = colcache/internal/cache colcache/internal/replacement colcache/internal/tint colcache/internal/wal colcache/internal/resultcache
cover:
	@$(GO) test -cover $(COVER_PKGS) | awk ' \
		/coverage:/ { \
			pct = 0 + substr($$5, 1, length($$5)-1); \
			printf "%-40s %s\n", $$2, $$5; \
			if (pct < 85.0) { bad = 1 } \
		} \
		END { if (bad) { print "coverage below the 85% gate"; exit 1 } }'

ci: build lint test race bench benchcore smoke servebench cachebench recovery fabric conformance cover multicore watch
