# Build, test and gate targets. CI (.github/workflows/ci.yml) runs most of
# them as steps. Its service, overload, memoization and fabric-load smokes,
# its -race run of the inspection tests, and its two paperbench -jobs 1 vs
# -jobs 8 text cmps (full -quick run, adaptive section) are written inline
# in ci.yml and have no target here,
# so a green `make ci` does not cover them; `servebench` is the local,
# non-race cousin of the service smoke and is not a CI step.
#
# Target map:
#   build / test / race  - compile and run the suite (plain, then -race)
#   lint                 - go vet + gofmt + staticcheck (skipped if absent)
#   fuzz-smoke           - FuzzDecoder, FuzzReadBinary, FuzzSimSpec and
#                          FuzzCachedHit for 10 s each: the binary-trace
#                          decoder and the spec validator parse uploaded
#                          request bodies, and a cache hit splices the
#                          request's label into stored bytes
#   bench                - SMOKE gate: one iteration of every benchmark, so
#                          every _test.go benchmark always compiles and
#                          executes; not a measurement (perfbench/ is the
#                          measured benchmark, see BENCHMARK.json)
#   smoke                - trimmed paperbench run with shape checks
#   paper-golden         - full default paperbench run, byte-compared with
#                          cmd/paperbench/testdata/paperbench.golden
#   paper-json           - paperbench -quick -json at -jobs 1 and -jobs 8:
#                          byte-identical documents, shapeChecksPassed true
#   colsim-golden        - colsim's round-robin scheduler (quanta 1 and 64,
#                          with and without -jobmask), -stream replay, the
#                          -cores N stepper (with -l2cols, replicated, and
#                          -inspect-every frames) and the single-core builder
#                          paths (text and in-memory traces, -synth, -map,
#                          -describe, -adaptive, -reuse, -inspect-every)
#                          over tracegen traces, byte-compared with
#                          cmd/colsim/testdata/colsim.golden; then a
#                          streamed -cores 3 run over a trace cut
#                          mid-record must fail and name the file
#   servebench           - colserved under load (service-smoke.json)
#   serve-golden         - a fixed spec set (single-core, maps, adaptive,
#                          multicore, sweep, binary upload) submitted to a
#                          standalone colserved and through a coordinator
#                          with two workers, a miss then hits: the answers,
#                          without id, node and timestamps, byte-compared
#                          with cmd/colserved/testdata/serve.golden; the
#                          coordinator answers each spec's last hit itself
#   recovery             - kill -9 a durable colserved mid-work, restart,
#                          prove no accepted job is lost or duplicated
#   fabric               - distributed colserved gates: ring/coordinator
#                          unit tests under -race, then the chaos test
#                          (3 real workers, SIGKILL one mid-sweep, every
#                          accepted job still finishes; a joining worker
#                          remaps only ~1/N of the keyspace)
#   conformance / cover  - differential oracle matrix + coverage gate
#   multicore            - MSI -race sweep, -jobs determinism
#   watch                - live-inspection smoke: colserved streams SSE
#                          occupancy frames for a running job, retains
#                          them for time travel, and colwatch replays a
#                          deterministic colsim frame dump
#   ci                   - every target above

GO ?= go

.PHONY: build test race lint fuzz-smoke bench smoke paper-golden paper-json colsim-golden servebench serve-golden recovery fabric conformance cover multicore watch ci

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

# A short run of each fuzzer over the parsers of untrusted input: the
# binary-trace decoder (checked against a per-record reference decoder)
# and the JSON spec validator, plus the cache-hit splice, checked against
# decoding and re-encoding the stored envelope. A failing input is saved
# under the package's testdata/fuzz/ and reruns in every later `go test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecoder$$' -fuzztime=10s ./internal/memtrace
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/memtrace
	$(GO) test -run='^$$' -fuzz='^FuzzSimSpec$$' -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzCachedHit$$' -fuzztime=10s ./internal/service

# One iteration of every benchmark: a smoke gate that keeps the benchmarks
# compiling and executing, not a measurement. Measured runs live in
# perfbench/ (bash perfbench/run.sh; workloads in BENCHMARK.json).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Trimmed end-to-end run of the paper's full evaluation, including the
# shape checks against the paper's qualitative claims.
smoke:
	$(GO) run ./cmd/paperbench -quick

# Every number of the full default evaluation, pinned: the stdout must be
# byte-identical to the committed golden. A change that moves a paper
# number on purpose regenerates the golden in the same commit.
paper-golden:
	$(GO) build -o /tmp/paperbench-golden ./cmd/paperbench
	/tmp/paperbench-golden > /tmp/paperbench-golden.txt
	cmp cmd/paperbench/testdata/paperbench.golden /tmp/paperbench-golden.txt

# The -json document is the text run's: identical at any -jobs value, and
# its verdict is the one that sets the exit status.
paper-json:
	$(GO) build -o /tmp/paperbench-json ./cmd/paperbench
	/tmp/paperbench-json -quick -jobs 1 -json /tmp/paperbench-j1.json > /dev/null
	/tmp/paperbench-json -quick -jobs 8 -json /tmp/paperbench-j8.json > /dev/null
	cmp /tmp/paperbench-j1.json /tmp/paperbench-j8.json
	python3 -c "import json; d = json.load(open('/tmp/paperbench-j1.json')); assert d['shapeChecksPassed'] is True, d['shapeChecksPassed']"

# colsim's run paths, pinned: three gzip jobs (seeds 1-3) and idct share
# the cache under the round-robin scheduler at quanta 1 and 64, with and
# without per-job masks, and each trace streams through -stream. The
# multicore stepper runs the four traces on 4 cores (they alias, so
# interventions, upgrades and writeback races all occur) with and without
# per-core L2 columns, the gzip traces on 3 cores, idct replicated on 4
# cores (every arbitration pick ties), and the last frames plus summary of
# an inspected 4-core run. The -cores runs over one file per core stream
# the files through the stepper's decode windows. The machine builder's
# other paths follow: one in-memory -binary trace, a text trace with
# -reuse, -synth stream, -map regions with -describe, -adaptive over -map
# regions, the last frames of a single-core -inspect-every dump, and
# -cores 2 over tracegen's two text shards of idct. Last, -cores 3 over
# two gzip traces and a copy of the third cut mid-record must exit
# non-zero, name the cut file on stderr and print no statistics.
# The traces come from tracegen, so nothing but the golden is committed.
# A change that moves a number on purpose regenerates the golden in the
# same commit (cp /tmp/colsim-golden.txt cmd/colsim/testdata/colsim.golden).
colsim-golden:
	$(GO) build -o /tmp/colsim-golden ./cmd/colsim
	$(GO) build -o /tmp/tracegen-golden ./cmd/tracegen
	for s in 1 2 3; do /tmp/tracegen-golden -workload gzip -seed $$s -binary -o /tmp/colsim-gzip$$s.bin 2>/dev/null; done
	/tmp/tracegen-golden -workload idct -binary -o /tmp/colsim-idct.bin 2>/dev/null
	/tmp/tracegen-golden -workload idct -o /tmp/colsim-idct.txt 2>/dev/null
	/tmp/tracegen-golden -workload idct -shards 2 -o /tmp/colsim-idct-shard.txt 2>/dev/null
	set -e; \
	gzip="/tmp/colsim-gzip1.bin /tmp/colsim-gzip2.bin /tmp/colsim-gzip3.bin"; \
	traces="$$gzip /tmp/colsim-idct.bin"; \
	masks="-jobmask 0:0 -jobmask 1:1 -jobmask 2:2,3"; \
	l2cols="-l2cols 0:0,1 -l2cols 1:2,3 -l2cols 2:4,5 -l2cols 3:6,7"; \
	{ \
		for q in 1 64; do \
			echo "== -quantum $$q"; /tmp/colsim-golden -binary -quantum $$q $$traces; \
			echo "== -quantum $$q $$masks"; /tmp/colsim-golden -binary -quantum $$q $$masks $$traces; \
		done; \
		for t in $$traces; do \
			echo "== -stream $$(basename $$t)"; /tmp/colsim-golden -binary -stream $$t; \
		done; \
		echo "== -cores 4"; /tmp/colsim-golden -binary -cores 4 $$traces; \
		echo "== -cores 4 $$l2cols"; /tmp/colsim-golden -binary -cores 4 $$l2cols $$traces; \
		echo "== -cores 3 gzip"; /tmp/colsim-golden -binary -cores 3 $$gzip; \
		echo "== -cores 4 idct"; /tmp/colsim-golden -binary -cores 4 /tmp/colsim-idct.bin; \
		/tmp/colsim-golden -binary -cores 4 -inspect-every 5000 -inspect-out - $$traces > /tmp/colsim-golden-frames.txt; \
		echo "== -cores 4 -inspect-every 5000 (last frames)"; tail -n 12 /tmp/colsim-golden-frames.txt; \
		echo "== -binary idct"; /tmp/colsim-golden -binary /tmp/colsim-idct.bin; \
		echo "== text idct -reuse"; /tmp/colsim-golden -reuse /tmp/colsim-idct.txt; \
		echo "== -synth stream"; /tmp/colsim-golden -synth stream -n 2000; \
		echo "== -map -describe idct"; /tmp/colsim-golden -binary -map 40000:200:0 -map 40200:c00:1,2 -describe /tmp/colsim-idct.bin; \
		echo "== -adaptive -map gzip1"; /tmp/colsim-golden -binary -adaptive -epoch 32768 -map e000:c000:0 -map 0:4000:1 -describe /tmp/colsim-gzip1.bin; \
		/tmp/colsim-golden -binary -inspect-every 5000 -inspect-out - /tmp/colsim-idct.bin > /tmp/colsim-golden-frames.txt; \
		echo "== -inspect-every 5000 idct (last frames)"; tail -n 9 /tmp/colsim-golden-frames.txt; \
		echo "== -cores 2 text idct shards"; /tmp/colsim-golden -cores 2 /tmp/colsim-idct-shard.0.txt /tmp/colsim-idct-shard.1.txt; \
	} > /tmp/colsim-golden.txt
	cmp cmd/colsim/testdata/colsim.golden /tmp/colsim-golden.txt
	size=$$(wc -c < /tmp/colsim-gzip3.bin); head -c $$((size - 5)) /tmp/colsim-gzip3.bin > /tmp/colsim-cut.bin
	if /tmp/colsim-golden -binary -cores 3 /tmp/colsim-gzip1.bin /tmp/colsim-gzip2.bin /tmp/colsim-cut.bin \
		> /tmp/colsim-cut.out 2> /tmp/colsim-cut.err; then \
		echo "colsim-golden: -cores 3 over a cut trace exited 0"; exit 1; \
	fi
	grep -q /tmp/colsim-cut.bin /tmp/colsim-cut.err
	! grep -qE '^(core|bus:|L2:)' /tmp/colsim-cut.out

# Serving benchmark: boot colserved, hammer it with colload, verify the
# metrics ledger closes, and leave the report in service-smoke.json.
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
	/tmp/colload -base http://$(SERVE_ADDR) -c $(SERVE_CLIENTS) -duration $(SERVE_SECS) -out service-smoke.json

# colserved's answers, pinned: cmd/colserved/servegolden.sh sends each spec
# of a fixed set twice to a standalone durable server and three times
# through a coordinator with two durable workers (a miss, a hit the owner
# answers, a hit the coordinator answers from the envelope it keeps), and
# prints every answer without id, node and timestamps. The standalone and
# fabric answers must agree, the output must equal the golden byte for
# byte, and the coordinator must have answered all six third hits itself.
# A change that moves an answer on purpose regenerates the golden in the
# same commit (cp /tmp/serve-golden.txt cmd/colserved/testdata/serve.golden).
SERVE_GOLDEN_PORT ?= 8354
serve-golden:
	$(GO) build -o /tmp/colserved-golden ./cmd/colserved
	$(GO) build -o /tmp/tracegen-serve-golden ./cmd/tracegen
	bash cmd/colserved/servegolden.sh /tmp/colserved-golden /tmp/tracegen-serve-golden /tmp/serve-golden $(SERVE_GOLDEN_PORT) > /tmp/serve-golden.txt
	cmp cmd/colserved/testdata/serve.golden /tmp/serve-golden.txt
	python3 -c "import json; v = json.load(open('/tmp/serve-golden/nodes.json')); assert v['edge_hits'] == 6, v['edge_hits']"

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

ci: build lint test fuzz-smoke race bench smoke paper-golden paper-json colsim-golden servebench serve-golden recovery fabric conformance cover multicore watch
