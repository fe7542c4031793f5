# Developer entry points. `make ci` is the gate a change must pass.

GO ?= go

.PHONY: all build vet fmt-check test race short chaos crash elastic fuzz telemetry-smoke serve-smoke bench blame alloc-gates profile soak soak-short perfbench-check ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file in the tree must be gofmt-clean; the target lists the
# offenders and fails if there are any.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# Quick loop: skips the long chaos campaigns (they run reduced iterations).
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Standalone fault-injection acceptance run (the same harness the chaos
# tests drive, at CLI scale): Independent protocol under ~1.7% per-delivery
# faults, then Split with a mid-run shard fail-stop surviving via parity.
chaos:
	$(GO) run ./cmd/sdimm-chaos -n 5000
	$(GO) run ./cmd/sdimm-chaos -ringflush 4 -n 3000
	$(GO) run ./cmd/sdimm-chaos -split -failshard 1 -n 2000

# Crash-recovery equivalence sweep (bounded runtime, fully seeded): restart
# points tear the journal mid-record, the cluster restarts from disk, and the
# recovered run must be bitwise-equivalent to an uncrashed reference. The
# -corrupt legs persist a flipped sealed-bucket bit into a checkpoint, so the
# PMMAC scrub — not the journal — has to catch it: Independent must poison
# the lost addresses, Split must repair from parity.
crash:
	$(GO) run ./cmd/sdimm-chaos -crash -n 1200 -crashes 4 -interval 64
	$(GO) run ./cmd/sdimm-chaos -crash -n 1200 -crashes 4 -parallel 4
	$(GO) run ./cmd/sdimm-chaos -crash -ringflush 4 -n 1200 -crashes 4 -parallel 4
	$(GO) run ./cmd/sdimm-chaos -crash -n 800 -crashes 3 -corrupt
	$(GO) run ./cmd/sdimm-chaos -crash -split -n 800 -crashes 3 -corrupt

# Elastic-membership equivalence sweep, under the race detector: drain /
# detach / rejoin a member (Independent) and fail-stop / rebuild-from-parity
# a member (Split) while seeded crashes land anywhere in the record stream —
# including inside migration batches and on the topology records themselves.
# Every recovery must be bitwise-equivalent to an uncrashed reference, with
# migrations flowing both sequentially and through the 4-worker pipeline.
elastic:
	$(GO) run -race ./cmd/sdimm-chaos -resize -n 600 -crashes 3 -interval 48
	$(GO) run -race ./cmd/sdimm-chaos -resize -n 600 -crashes 3 -interval 48 -parallel 4
	$(GO) run -race ./cmd/sdimm-chaos -resize -split -n 600 -crashes 3 -interval 48
	$(GO) test -race -count=1 -run 'TestDrainTrafficIndistinguishable' ./internal/attacker

# End-to-end telemetry smoke: a short Independent run with span tracing,
# exporting Chrome trace-event JSON. sdimm-sim re-validates the written
# file against the trace schema and exits nonzero if it is malformed; the
# grep asserts the validation line actually appeared.
telemetry-smoke:
	@out=$$(mktemp -t sdimm-trace-XXXXXX.json) && \
	$(GO) run ./cmd/sdimm-sim -protocol independent -levels 20 -warmup 100 -measure 300 -trace $$out | grep -E '^trace .*validated' && \
	rm -f $$out

# Parallel-engine throughput report: times the batched cluster pipeline at
# 1/2/4/8 workers and the campaign runner at 1 vs 8 workers, then writes
# BENCH_parallel.json (accesses/sec, speedups, NumCPU, GOMAXPROCS). With ≥4
# effective CPUs (min of NumCPU and GOMAXPROCS) the speedup gates are
# enforced (4-worker pipeline ≥2x; with ≥8 effective CPUs, 8-worker campaign
# ≥2x); smaller hosts record the curve without enforcing, flagged by
# "gate_enforced": false in the JSON.
bench: alloc-gates
	$(GO) run ./cmd/sdimm-bench -exp parbench -parbench-out BENCH_parallel.json
	$(GO) run ./cmd/sdimm-bench -exp recbench -recbench-out BENCH_recovery.json
	$(GO) run ./cmd/sdimm-bench -exp hotpath -hotpath-out BENCH_hotpath.json
	$(GO) run ./cmd/sdimm-bench -exp rebalance -rebalance-out BENCH_rebalance.json
	$(GO) run ./cmd/sdimm-bench -exp ringbench -ringbench-out BENCH_ring.json
	$(GO) run ./cmd/sdimm-serve -bench -bench-out BENCH_serve.json

# Critical-path blame profile of the batched pipeline: per-wave phase
# breakdown plus the serialization ledger (coordinator phases ranked by
# all-workers-idle wall-clock) at 1 and 4 workers → BENCH_blame.json.
# Gates: ≥90% of wave wall-clock attributed (the contiguous-interval
# construction makes it exactly 100%) and a non-empty ledger with a named
# top bottleneck. See README, "Diagnosing a slow pipeline".
blame:
	$(GO) run ./cmd/sdimm-bench -exp blame -blame-out BENCH_blame.json

# Allocation-regression gates for the steady-state access loop: seal/open,
# Engine.Access, the journal commit and the checkpoint encode must stay at
# 0 allocs/op. These run without -race on purpose — race instrumentation
# allocates, so the gate tests skip themselves under it (see
# internal/raceflag).
alloc-gates:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/seccomm ./internal/oram ./internal/durable

# CPU and heap profiles of the access hot path, for digging into a
# regression the alloc gates or BENCH_hotpath.json surfaced. Inspect with
# `go tool pprof hotpath.cpu.pprof` (then `top`, `list <func>`, `web`).
profile:
	$(GO) run ./cmd/sdimm-bench -exp hotpath -hotpath-out BENCH_hotpath.json \
		-cpuprofile hotpath.cpu.pprof -memprofile hotpath.heap.pprof
	@echo "profiles: hotpath.cpu.pprof hotpath.heap.pprof (go tool pprof <file>)"

# Wire-format decoders must never panic on hostile input. The durable-state
# decoders (journal records, checkpoints) must additionally fail closed:
# anything they accept is chain-authenticated and canonical. The sharded
# position map's fuzz leg cross-checks it against a plain map under random
# interleaved Get/Set/Snapshot traffic.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalAccess -fuzztime=20s ./internal/sdimm
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalResponse -fuzztime=20s ./internal/sdimm
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalAppend -fuzztime=20s ./internal/sdimm
	$(GO) test -run=NONE -fuzz=FuzzJournalDecode -fuzztime=20s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzCheckpointDecode -fuzztime=20s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzShardedPosMap -fuzztime=20s ./internal/oram
	$(GO) test -run=NONE -fuzz=FuzzRingStateDecode -fuzztime=20s ./internal/oram
	$(GO) test -run=NONE -fuzz=FuzzWireDecode -fuzztime=20s ./internal/serve

# Serving front-end smoke: the in-process sdimm-serve run (two tenants,
# closed-loop load, graceful drain, witness + zero-accepted-deadline-miss
# gates) followed by the secure-kv example, which exercises the same wire
# protocol as a thin KV client.
serve-smoke:
	$(GO) run ./cmd/sdimm-serve -smoke
	$(GO) run ./examples/secure-kv >/dev/null

# Pipeline soak, full tier: the randomized stress wall around the overlapped
# engine (16 scenarios × 1000 mixed read/write/migrate ops, windows 1..12,
# transient faults and fail-stops, parallelism 1 vs 2/4/8 bitwise) under the
# race detector. `make race` already runs the default tier; this is the
# pre-merge deep soak.
soak:
	$(GO) test -race -count=1 -run 'TestPipelineSoak' -soak.long -timeout 30m .

# Fast pipeline gates, run explicitly in ci on top of the full race suite:
# the short-tier soak plus the blame regression (top serialization phase
# must hold <25% of wall-clock at 4 workers on a multicore host).
soak-short:
	$(GO) test -race -count=1 -short -run 'TestPipelineSoak|TestPipelineBlameRegression' .

# The benchmark harness is its own module (perfbench/go.mod, pointing at
# the repo through a replace directive), so `go build ./...` at the root
# never compiles it. Vet and test it here so an API slip in the root
# package fails the gate instead of the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: build vet fmt-check race soak-short perfbench-check telemetry-smoke serve-smoke bench blame crash elastic
