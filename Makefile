GO ?= go

.PHONY: check fmt vet build test test-race bench bench-json bench-compare alloc-guard race-reset set-model soak-short soak-large soak-bench bench-pairs failover-bench burst-trace fd-pause gcs-stress loadgen-smoke loadgen-c1k farm-smoke

# Sequence number for committed benchmark reports (BENCH_<n>.json).
BENCH_N ?= 10

# check is the tier-1 gate: formatting, vet, build, full test suite,
# plus the allocation guards, the set-vs-model property tests under the
# race detector, a short race pass over the reset determinism tests,
# soak campaigns under the race detector at both the thesis scale and
# the kilo-process 1024-proc scale (the properties the run-reuse
# lifecycle, the wide-word set representation and the campaign engine
# must never lose silently), and the live-path smokes: a real TCP
# cluster under client load with an injected partition, and the same
# cluster serving a thousand concurrent pipelined connections, and the
# distributed sweep farm: a coordinator plus three local worker
# processes merging a campaign over localhost TCP; and the failure
# detector's pause gate: the live cluster stopped and resumed under
# load must not fail a write; and the allocs/op gate over every
# benchmark in BENCH_$(BENCH_N).json.
check: fmt vet build test alloc-guard set-model race-reset soak-short soak-large loadgen-smoke loadgen-c1k farm-smoke fd-pause bench-compare

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race re-runs the concurrency-sensitive packages under the race
# detector: the metrics registry, the live group-communication stack,
# the instrumented simulator, and the campaign engine.
test-race:
	$(GO) test -race ./internal/metrics/... ./internal/gcs/... ./internal/sim/... ./internal/trace/... ./internal/experiment/... ./internal/campaign/... ./internal/farm/...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-json runs the full benchmark suite with allocation stats and
# converts the output into a machine-readable BENCH_$(BENCH_N).json,
# the before/after evidence file committed with perf PRs. GOMAXPROCS=1
# is how BENCH_10.json was recorded: benchmark names carry no
# -<GOMAXPROCS> suffix and the experiment layer builds one driver, so a
# report keys against, and allocates like, one read on another machine.
bench-json:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_$(BENCH_N).json
	@echo "wrote BENCH_$(BENCH_N).json"

# bench-compare re-runs the benchmark suite and diffs it against the
# committed BENCH_$(BENCH_N).json: per-benchmark ns/op, B/op and
# allocs/op deltas, non-zero exit when allocs/op regressed beyond the
# tolerance or a committed benchmark did not run (see cmd/benchjson).
# ns/op at -benchtime 1x is printed and not gated; `go run ./benchmark`
# is where time is measured.
bench-compare:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... \
		| $(GO) run ./cmd/benchjson -baseline BENCH_$(BENCH_N).json

# alloc-guard pins the allocation-free hot paths: in the simulator, the
# steady-state collect/deliver loop (bare and with the soak's trace
# ring attached) and the Driver.Reset lifecycle; in ykd, a whole state
# round after a warm-up view; in the trace package, Record into a full
# ring; in the live transport, the pooled Send/arena-receive wire path.
alloc-guard:
	$(GO) test -run 'AllocFree' -count 1 ./internal/sim/
	$(GO) test -run 'AllocFree' -count 1 ./internal/ykd/
	$(GO) test -run 'AllocFree' -count 1 ./internal/trace/
	$(GO) test -run 'SteadyStateAllocs' -count 1 ./internal/gcs/

# set-model re-runs the proc.Set map-reference property tests (and the
# fuzz seed corpus) under the race detector: every mutation and algebra
# op is compared against a reference model at the word-boundary sizes
# 63/64/65 and 255/256/257.
set-model:
	$(GO) test -race -run 'SetModel|FuzzSetModel|BitsModel|BitsReset' -count 1 ./internal/proc/

# race-reset runs the reset-vs-fresh golden tests under the race
# detector: the per-worker driver reuse in the experiment layer must
# stay data-race-free at any worker count.
race-reset:
	$(GO) test -race -run 'ResetVsFresh' -count 1 ./internal/sim/ ./internal/experiment/

# soak-short is a small sharded safety campaign — every algorithm, a few
# thousand changes split over 4 chains — built and run under the race
# detector, exercising the exact binary and scheduling path CI ships.
soak-short:
	$(GO) run -race ./cmd/quorumcheck -changes 2000 -procs 24 -chains 4 -progress 0

# soak-bench measures quorumcheck's default soak (six algorithms,
# checker on, -trace 4096, through the farm). Its chains run untraced:
# the ring is attached only to the replay of a chain that fails, and
# none does. trace.record_ns and trace.cost_share in the traced pass
# price the ring on the benchmark's own shadow replay, i.e. what a
# traced replay costs, not what the soak pays.
soak-bench:
	$(GO) run ./benchmark -workload soak_farm_64 -trace 1

# bench-pairs is the "ten alternating pairs" rule as one command: the
# working tree against the commit BASE on one benchmark workload, N
# pairs (default 10), then per end-to-end metric the two medians and
# the pairs each side won. BASE and both binaries live in $TMPDIR for
# the run. Not part of check: ten pairs of soak_farm_64 take ~5 min.
#   make bench-pairs BASE=HEAD~ W=soak_farm_64 N=10
bench-pairs:
	GO=$(GO) sh scripts/bench-pairs.sh "$(BASE)" "$(W)" "$(or $(N),10)"

# failover-bench measures rejoin after a healed partition on a live
# 3-replica TCP cluster and then splits it along the timeline:
# wait_p50_us (= loadgen.rejoin_p50_ms), gcs.heal_to_proposal_ms,
# gcs.proposal_to_install_ms, alg.install_to_primary_ms and
# gcs.detect_ms in the output are the numbers DESIGN.md "Live-path
# observability" quotes.
failover-bench:
	$(GO) run ./benchmark -workload live_failover -trace 1

# burst-trace runs the write burst with the per-layer trace on: it is
# the one command that reads how many TCP frames each write costs
# (gcs.tcp_frames_per_op), how many of them the send queues dropped
# (gcs.tcp_sendq_drops), how many replicas each write reached
# (gcs.app_payloads_per_op, 3.00 when all of them did) and how many
# keys a replica ended up missing (register.lost_write_keys).
burst-trace:
	$(GO) run ./benchmark -workload live_write_burst -trace 1

# fd-pause stops the whole live_write_burst process for 0.3 s (twice
# FailAfter) two times inside its measurement window, which opens some
# 2.6 s after the start, and fails unless the result line reports
# "failed":0. A failure detector that charges its peers for the time
# it was itself stopped drops every peer on resume, and the writes in
# flight across those views are refused. The pid is the shell's $$!:
# pgrep -f would match the shell running this recipe too.
FD_PAUSE_BIN := $(or $(TMPDIR),/tmp)/benchmark-fd-pause
fd-pause:
	$(GO) build -o $(FD_PAUSE_BIN) ./benchmark
	@out=$$(mktemp); \
	$(FD_PAUSE_BIN) -workload live_write_burst >$$out & pid=$$!; \
	for at in 5 3; do \
		sleep $$at; kill -STOP $$pid; sleep 0.3; kill -CONT $$pid; \
	done; \
	wait $$pid; status=$$?; \
	tail -n 1 $$out; \
	if [ $$status -ne 0 ] || ! tail -n 1 $$out | grep -q '"failed":0,'; then \
		echo "fd-pause: writes failed across a local pause"; rm -f $$out $(FD_PAUSE_BIN); exit 1; \
	fi; \
	rm -f $$out $(FD_PAUSE_BIN)

# gcs-stress repeats the TCP transport's socket tests and the failure
# detector's virtual-time tests ten times under the race detector: the
# socket tests race real goroutines, and one pass can miss a schedule.
gcs-stress:
	$(GO) test -race -count=10 -run 'TestTCP|TestHeartbeat|Detector' ./internal/gcs/

# loadgen-smoke boots a 3-node replicated store over real TCP sockets,
# drives it with concurrent clients, injects a partition mid-run and
# heals it — then asserts (via -smoke) that throughput was non-zero,
# latency quantiles are sane, per-peer wire stats were collected, and
# a primary-recovery time was actually measured from the failover
# timeline. This is the live path's end-to-end gate.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -inproc 3 -conns 4 -duration 2s -partition 500ms -heal 1300ms -q -smoke

# loadgen-c1k is the kilo-connection smoke: the same 3-node TCP cluster
# serving 1000 concurrent pipelined client connections — the serving
# path's scalability gate (descriptor limits, per-connection goroutines,
# coalesced response flushing all under pressure at once).
loadgen-c1k:
	$(GO) run ./cmd/loadgen -inproc 3 -conns 1000 -pipeline 4 -duration 2s -q -smoke

# farm-smoke is the distributed sweep farm's end-to-end gate: one
# coordinator binary (built under the race detector) spawning three
# local worker processes, sharding a sharded campaign over localhost
# TCP and merging the chains back — the merge is bit-identical to a
# local run by construction, and any protocol or requeue race trips
# the detector in all four processes.
# The binary goes to $TMPDIR (default /tmp) and is removed whether the
# run passes or fails.
FARM_SMOKE_BIN := $(or $(TMPDIR),/tmp)/quorumcheck-farm-smoke
farm-smoke:
	$(GO) build -race -o $(FARM_SMOKE_BIN) ./cmd/quorumcheck
	$(FARM_SMOKE_BIN) -changes 1500 -procs 24 -chains 6 -progress 0 \
		-farm-listen 127.0.0.1:0 -farm-workers 3; \
	status=$$?; rm -f $(FARM_SMOKE_BIN); exit $$status

# soak-large is the safety campaign at the kilo-process scale under
# the race detector: 1024 processes, one algorithm, checker on. The
# change budget is minimal — a single cascading segment at this width
# pushes on the order of a million deliveries through the wide-word
# set, batched delivery and arena paths, and the race detector
# multiplies every one of them, so two changes already cost ~4s.
soak-large:
	$(GO) run -race ./cmd/quorumcheck -changes 2 -segment 2 -chains 1 -procs 1024 -alg ykd -progress 0
