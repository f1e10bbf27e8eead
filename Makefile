GO ?= go

# Packages with lock-free / pooled hot-path code that must stay race-clean,
# plus the construction path every PE runs through (coordinator, monitor).
RACE_PKGS := ./internal/exec/... ./internal/queue/... ./internal/spl/... ./internal/pe/... ./internal/obs/... ./internal/metrics/... ./internal/cluster/... ./internal/monitor/... ./internal/core/...

# Benchmark packages; bench output is benchstat-comparable (go test -json).
BENCH_PKGS := ./internal/exec/... ./internal/queue/...
BENCH_OUT  := BENCH_1.json

# Inter-PE transport benchmarks: batched loopback runs plus the zero-alloc
# encode/decode microbenchmarks.
BENCH_PE_OUT := BENCH_2.json

# Work-stealing scheduler benchmarks: the contended fan-in shape at
# 2/4/8/16 workers, plus the deque microbenchmarks (push/pop and
# steal-half, both 0 allocs/op). The committed file also holds the retired
# shared-MPMC-only scheduler's rows.
BENCH_SCHED_OUT := BENCH_4.json

# Observability benchmarks: registry instrument hot paths (counter inc,
# sharded histogram observe, flight-recorder record — all 0 allocs/op) and
# the end-to-end sampling overhead sweep (off / 1% / every tuple).
BENCH_OBS_OUT := BENCH_5.json

# Hot-path benchmarks for the shared-point-elimination round: the contended
# fan-in worker sweep with the sharded sink, plus the zero-copy decode
# microbenchmarks. Results embed GOMAXPROCS as a reported metric. The
# committed file also holds the retired mutex sink's rows (the Fig. 10
# comparison).
BENCH_HOTPATH_OUT := BENCH_6.json

# Region-compilation benchmarks: interpreted tuple-at-a-time vs compiled
# batch execution on deep all-manual chains (tuples/s, 0 allocs/op both
# modes; gomaxprocs reported).
BENCH_FUSED_OUT := BENCH_7.json

# Checkpoint overhead benchmarks: live keyed-pipeline throughput with
# checkpointing off vs 1s vs 100ms intervals against a file-backed log.
# The acceptance bar: <= 10% tuples/s loss at the 1s interval vs off.
BENCH_CKPT_OUT := BENCH_8.json

# Wire-format benchmarks: batch frames across payload sizes
# (BenchmarkExportImportWire), plus the batch encode/decode steady-state
# microbenchmarks (0 allocs/op). Every row reports gomaxprocs. The committed
# file also holds the retired frame-per-tuple wire's rows.
BENCH_WIRE_OUT := BENCH_9.json

# Cluster elasticity benchmarks: time-to-settle and delivery-rate dip for
# live grow 2->4 / shrink 4->2 of a running stateful pipeline (per-cycle
# settle_grow_ms / settle_shrink_ms, deepest 50ms throughput window during
# each transition as a fraction of steady state, gomaxprocs provenance).
BENCH_CLUSTER_OUT := BENCH_10.json

# Repeat count for benchstat-bound runs: benchstat needs several samples
# per key to average and mark significance, one run proves nothing.
BENCH_COUNT ?= 5

.PHONY: build test race vet bench bench-pe bench-sched bench-sched-smoke bench-hotpath bench-hotpath-smoke bench-obs bench-fused bench-fused-smoke bench-ckpt bench-ckpt-smoke bench-wire bench-wire-smoke bench-cluster bench-cluster-smoke bench-e2e bench-e2e-smoke benchstat fuzz fuzz-pe fuzz-wire fuzz-deque fuzz-obs fuzz-batch fuzz-ckpt chaos chaos-state chaos-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

vet:
	$(GO) vet ./...

# bench writes machine-readable benchmark results to $(BENCH_OUT); feed the
# file to `benchstat` (or compare two runs' files) to track hot-path
# regressions across commits.
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem $(BENCH_PKGS) > $(BENCH_OUT)

# bench-pe writes the transport benchmark results (tuples/s and allocs/op
# for export->import at 16B/64B/1KiB/16KiB payloads) to $(BENCH_PE_OUT) in
# the same benchstat-comparable format.
bench-pe:
	$(GO) test -json -run '^$$' -bench 'ExportImport|SteadyState' -benchmem ./internal/pe/ > $(BENCH_PE_OUT)

# bench-sched writes the scheduler sweep (tuples/s and steals/s on the
# contended fan-in, deque allocs/op) to $(BENCH_SCHED_OUT); compare it
# against the committed file with benchstat.
bench-sched:
	$(GO) test -json -run '^$$' -bench 'ContendedFanIn' -benchmem ./internal/exec/ > $(BENCH_SCHED_OUT)
	$(GO) test -json -run '^$$' -bench 'WSDeque' -benchmem ./internal/queue/ >> $(BENCH_SCHED_OUT)

# One-iteration smoke of the same benchmarks for CI: proves they run, makes
# no timing claims.
bench-sched-smoke:
	$(GO) test -run '^$$' -bench 'ContendedFanIn' -benchtime 1x -benchmem ./internal/exec/
	$(GO) test -run '^$$' -bench 'WSDeque' -benchtime 1x -benchmem ./internal/queue/

# bench-hotpath writes the raw-speed round 2 results to
# $(BENCH_HOTPATH_OUT): the contended fan-in at 2/4/8/16 workers with the
# sharded sink (every run reports a gomaxprocs metric), plus the decode
# benchmarks showing zero payload-copy allocs. The sweep is benchstat-ready: per-worker
# sub-benchmark keys plus $(BENCH_COUNT) repeats per key, so the multi-core
# rerun is this one command followed by
# `make benchstat OLD=BENCH_6.json NEW=<new file>`.
bench-hotpath:
	$(GO) test -json -run '^$$' -bench 'ContendedFanIn' -benchmem -count=$(BENCH_COUNT) ./internal/exec/ > $(BENCH_HOTPATH_OUT)
	$(GO) test -json -run '^$$' -bench 'Decode|ExportImport' -benchmem -count=$(BENCH_COUNT) ./internal/pe/ >> $(BENCH_HOTPATH_OUT)

# One-hundred-iteration smoke of the fan-in benches for CI: proves they
# build and run without panicking, makes no timing claims.
bench-hotpath-smoke:
	$(GO) test -run '^$$' -bench 'ContendedFanIn' -benchtime 100x -benchmem ./internal/exec/

# bench-obs writes the observability overhead results (instrument
# microbenchmarks plus the queue-crossing sampling sweep) to
# $(BENCH_OBS_OUT); compare sampling=off against sampling=every with
# benchstat to bound the instrumentation tax.
bench-obs:
	$(GO) test -json -run '^$$' -bench 'CounterInc|HistogramObserve|FlightRecord' -benchmem ./internal/obs/ > $(BENCH_OBS_OUT)
	$(GO) test -json -run '^$$' -bench 'QueueCrossingSampling' -benchmem ./internal/exec/ >> $(BENCH_OBS_OUT)

# bench-ckpt writes the checkpoint overhead sweep to $(BENCH_CKPT_OUT):
# BenchmarkCheckpoint/off vs /1s vs /100ms on the live keyed pipeline,
# five runs each (the off-vs-1s gap is single-digit percent, so the claim
# needs averages, not one sample). Compare off against 1s with benchstat
# to verify the <= 10% overhead bar.
bench-ckpt:
	$(GO) test -json -run '^$$' -bench 'BenchmarkCheckpoint' -benchmem -count=5 ./internal/exec/ > $(BENCH_CKPT_OUT)

# One-iteration smoke of the checkpoint benches for CI: proves they run,
# makes no timing claims.
bench-ckpt-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint' -benchtime 1x -benchmem ./internal/exec/

# bench-fused writes the region-compilation comparison to
# $(BENCH_FUSED_OUT): BenchmarkManualChain scalar vs fused at depth 4 and
# 16. The acceptance bar for the compiled path is >= 1.5x tuples/s over
# scalar on the deep chain with 0 allocs/op; check with
# `make benchstat OLD=... NEW=BENCH_7.json` or compare the fused/scalar
# rows directly.
bench-fused:
	$(GO) test -json -run '^$$' -bench 'ManualChain' -benchmem ./internal/exec/ > $(BENCH_FUSED_OUT)

# One-hundred-iteration smoke of the fused benches for CI: proves the
# compiled path builds and runs, makes no timing claims.
bench-fused-smoke:
	$(GO) test -run '^$$' -bench 'ManualChain' -benchtime 100x -benchmem ./internal/exec/

# bench-wire writes the wire benchmarks to $(BENCH_WIRE_OUT):
# BenchmarkExportImportWire wire=batch at 16B/64B/1KiB/16KiB payloads
# ($(BENCH_COUNT) repeats per key at 2s each — the end-to-end loopback needs
# a couple of seconds of steady state before connection setup, pool warmup,
# and ring fill stop skewing the sample), its paced trickle row
# (wire=batch/trickle/payload=64: one tuple per 20us, reporting
# tuples/frame and frames/flush), plus the batch encode/decode
# steady-state microbenchmarks. Compare wire=batch/payload=N against the
# committed BENCH_9.json with benchstat.
bench-wire:
	$(GO) test -json -run '^$$' -bench 'ExportImportWire' -benchtime 2s -benchmem -count=$(BENCH_COUNT) ./internal/pe/ > $(BENCH_WIRE_OUT)
	$(GO) test -json -run '^$$' -bench 'BatchEncodeSteadyState|BatchDecodeSteadyState' -benchmem ./internal/pe/ >> $(BENCH_WIRE_OUT)

# One-hundred-iteration smoke of the wire benches for CI: proves they build
# and run, makes no timing claims.
bench-wire-smoke:
	$(GO) test -run '^$$' -bench 'ExportImportWire|BatchEncodeSteadyState|BatchDecodeSteadyState' -benchtime 100x -benchmem ./internal/pe/

# benchstat diffs two committed BENCH_*.json artifacts with the stdlib-only
# in-repo tool (averages repeated runs, marks better/worse per unit):
#   make benchstat OLD=BENCH_4.json NEW=BENCH_6.json
OLD ?= BENCH_4.json
NEW ?= BENCH_6.json
benchstat:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# Short deterministic pass over the MPMC batch-operation fuzz corpus.
fuzz:
	$(GO) test ./internal/queue/ -run '^$$' -fuzz FuzzMPMCBatchOps -fuzztime 20s

# Short fuzz pass over the transport's coalesced batch frame streams:
# round trip, truncation, and hostile byte flips.
fuzz-pe:
	$(GO) test ./internal/pe/ -run '^$$' -fuzz FuzzBatchedFrames -fuzztime 20s

# Short fuzz pass over the v2 batch frame decoder (hostile headers, seq
# deltas, record lengths; committed seed corpus in testdata/fuzz).
fuzz-wire:
	$(GO) test ./internal/pe/ -run '^$$' -fuzz FuzzBatchFrameDecode -fuzztime 20s

# Short fuzz pass over the work-stealing deque against a reference model.
fuzz-deque:
	$(GO) test ./internal/queue/ -run '^$$' -fuzz FuzzDeque -fuzztime 20s

# Short fuzz pass over the Prometheus label-escaping round trip.
fuzz-obs:
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzPromEscape -fuzztime 20s

# Short fuzz pass over batch-compiled vs interpreted execution equivalence:
# random operator chains and inputs, byte-identical sink output required in
# both region shapes.
fuzz-batch:
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzBatchEquivalence -fuzztime 20s

# Short fuzz pass over the checkpoint decode surfaces: snapshot codec,
# Map/Cell restore, and the CRC-framed file log's torn/corrupt scan.
fuzz-ckpt:
	$(GO) test ./internal/state/ -run '^$$' -fuzz FuzzCheckpointCodec -fuzztime 20s

# Seeded fault-injection suite under the race detector: connection kills,
# frame corruption, operator panics with quarantine, watchdog freeze — all
# with exactly-once delivery and full tuple accounting asserted.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' -v ./internal/pe/

# Stateful-recovery chaos suite under the race detector: operator panics,
# connection kills, and checkpoint crash/corrupt/torn faults on the keyed
# join pipeline, with byte-identical output asserted against a fault-free
# run on the exactly-once path.
chaos-state:
	$(GO) test -race -count=1 -run 'ChaosState' -v ./internal/pe/

# Cluster-migration chaos suite under the race detector: a stateful region
# is moved between PEs mid-stream with connections killed mid-migration and
# operator panics dropping tuples, and the sink output must be
# byte-identical to a same-seed run that never migrates.
chaos-cluster:
	$(GO) test -race -count=1 -run 'ChaosCluster' -v ./internal/cluster/

# bench-cluster writes the elasticity settling results to
# $(BENCH_CLUSTER_OUT): BenchmarkClusterGrowShrink cycles a live stateful
# pipeline 2 -> 4 -> 2 per iteration and reports time-to-settle and the
# deepest 50ms delivery-rate window for each transition (1.0 = no dip),
# with gomaxprocs on every row for provenance.
bench-cluster:
	$(GO) test -json -run '^$$' -bench 'ClusterGrowShrink' -benchtime 5x -count=$(BENCH_COUNT) ./internal/cluster/ > $(BENCH_CLUSTER_OUT)

# One-cycle smoke of the elasticity bench for CI: proves the grow/shrink
# cycle completes without aborts or duplicates, makes no timing claims.
bench-cluster-smoke:
	$(GO) test -run '^$$' -bench 'ClusterGrowShrink' -benchtime 1x ./internal/cluster/

# The end-to-end benchmark's workloads (BENCHMARK.json; perfbench/ is its
# own Go module). bench-e2e runs each for BENCHMARK.json's 15 s through
# perfbench/run.sh, which builds into .bench_build/ and writes one result
# file per run to .perfbench-out/; the last line of each run is its JSON
# result. Run perfbench/run.sh by hand with --trace 1 for the per-layer
# metrics.
E2E_WORKLOADS := fanin-dynamic pipeline-elastic keyed-wire-ckpt cluster-resize

bench-e2e:
	@for w in $(E2E_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seconds 15 --trace 0 || exit 1; \
	done

# One-second run of every workload for CI: fails unless the run's own
# output check passed ("correct":true on its last line). Makes no timing
# claims.
bench-e2e-smoke:
	@for w in $(E2E_WORKLOADS); do \
		out=$$(bash perfbench/run.sh --workload $$w --seconds 1 --trace 0 2>&1) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "$$w: output check failed"; echo "$$out"; exit 1; }; \
	done
