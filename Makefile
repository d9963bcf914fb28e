# Common development targets for the taxitrace reproduction.

GO ?= go

.PHONY: all build test vet bench perfbench bench-runner bench-serve bench-fleet bench-obs bench-ingest bench-cluster bench-predict bench-router race ci fuzz profile results results-check examples clean help

all: build vet test

help:
	@echo "Targets:"
	@echo "  all      build + vet + test (default)"
	@echo "  build    go build ./..."
	@echo "  vet      go vet ./..."
	@echo "  test     go test ./..."
	@echo "  race     go vet + go test -race ./... (concurrency gate for the"
	@echo "           shared Router: pooled scratch, sharded path cache and"
	@echo "           parallel per-car workers all run under the race detector)"
	@echo "  ci       the full gate CI runs: gofmt check + build + vet +"
	@echo "           test + results-check + race, the cross-mode, ingest"
	@echo "           round and trip-buffer gates at -cpu 1,2,4, the round"
	@echo "           and trip-buffer gates again under -race -count=10,"
	@echo "           then build + vet of the perfbench/ module, which ./..."
	@echo "           skips"
	@echo "  fuzz     run every native fuzz target for FUZZTIME (default 30s)"
	@echo "           each; seed corpora live in testdata/fuzz/"
	@echo "  bench    run every benchmark with -benchmem"
	@echo "  perfbench run the repository benchmark's gated workloads"
	@echo "           (firehose, serve_mixed) for 2 s each; fails when a"
	@echo "           run's output checks fail"
	@echo "  bench-runner  snapshot fleet-runner perf (batch vs stream at"
	@echo "           1/4/GOMAXPROCS workers) into results/BENCH_runner.json"
	@echo "  bench-serve   snapshot serving-layer perf (sink ingest/publish"
	@echo "           throughput, query latency incl. p50/p99 under"
	@echo "           concurrent load) into results/BENCH_serve.json"
	@echo "  bench-fleet   snapshot fleet-scale perf (1k/10k cars x format"
	@echo "           matrix + ingest microbenches, merged with the"
	@echo "           frozen pre-columnar baseline) into"
	@echo "           results/BENCH_fleet.json; FLEET_CARS=N adds a size"
	@echo "  bench-obs     snapshot observability overhead (obs off vs idle"
	@echo "           tracer+lineage vs fully traced on the 1k-car fleet)"
	@echo "           into results/BENCH_obs.json"
	@echo "  bench-ingest  snapshot streaming-ingest perf (ordered and"
	@echo "           bounded-shuffle firehose replay: points/s + p99"
	@echo "           ingest-to-visible latency, admission alone with obs"
	@echo "           off and on: ns + B per point, plus NDJSON/binary"
	@echo "           frame decode) into results/BENCH_ingest.json"
	@echo "  bench-cluster snapshot multi-node scaling (1 vs 4 worker"
	@echo "           processes on the paced-feed fleet, cars/s; the 4-shard"
	@echo "           arm must hold >=2.5x the single-node baseline) into"
	@echo "           results/BENCH_cluster.json"
	@echo "  bench-predict snapshot prediction-layer perf (travel-time"
	@echo "           prediction over a 24x24 street grid, free-flow vs"
	@echo "           fully profiled, plus anomaly-report scoring at 100"
	@echo "           and 1000 cells) into results/BENCH_predict.json"
	@echo "  bench-router  snapshot routing-engine perf (uncached"
	@echo "           bidirectional search, path-cache hits, one-to-many"
	@echo "           distance batches) into results/BENCH_router.json"
	@echo "  profile  run a large taxiflow workload with -debug-addr and"
	@echo "           capture a 10 s CPU profile into cpu.pprof"
	@echo "  results  regenerate all paper tables/figures into results/"
	@echo "  results-check  rerun the results recipe into a temporary"
	@echo "           directory and fail, naming each file, unless every"
	@echo "           file it writes is byte-identical to results/ (checked"
	@echo "           on amd64)"
	@echo "  examples run every example program"
	@echo "  clean    remove scratch output"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector gate: the pipeline shares one Router (scratch pools,
# path cache) across per-car goroutines, so -race is part of tier-1
# hygiene, not an optional extra.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# The ingest engine's round hand-off gates: two rounds in flight, their
# fold order, and where a round's stage panic is raised.
ROUND_TESTS := PushOverlapsRunningRound|RoundPanicRaisedOnceByFirstWaiter|RoundPanicKeepsFoldOrder|RoundsOverlapLikeAdvanceEveryPush

# The ingest engine's open-trip buffer gates: trips on and around the
# block boundaries read back bit for bit, and no analysis result aliases
# the arena a round's worker gathers its trips into.
BUFFER_TESTS := OpenTripBlockBoundaries|PoisonedGatherMatchesSerialFold

# perfbench/ is a module of its own, so ./... never compiles it; these
# are perfbench/run.sh's offline module settings.
PERFBENCH_ENV := GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

# The full gate: what .github/workflows/ci.yml runs on every push/PR.
# The first line fails on any tracked Go file gofmt would change (listing
# through git keeps build products such as .bench_build/ out).
# results-check fails when results/ is not what the code writes. The
# -cpu line reruns the cross-mode gates (cluster = single node, streamed
# = batch), the ingest flush's parallel-analysis, ordered-fold gate,
# its round hand-off gates and its trip-buffer gates at several core
# counts: an answer that depends on GOMAXPROCS fails there. The -race
# -count=10 line repeats the hand-off gates, where two rounds run at
# once, and the trip-buffer gates, whose rounds gather trips on several
# workers, under the race detector. The last two lines build and vet the benchmark against
# this checkout, so a change to a name it uses fails here rather than
# when the benchmark runs; they write no files.
ci:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) --no-print-directory results-check
	$(GO) test -race ./...
	$(GO) test -cpu 1,2,4 -run 'MatchesSingleNode|MatchesBatch|FlushIsSequentialFold|$(ROUND_TESTS)|$(BUFFER_TESTS)' ./internal/cluster ./internal/ingest ./internal/sink
	$(GO) test -race -count=10 -run '$(ROUND_TESTS)|FlushIsSequentialFold|$(BUFFER_TESTS)' ./internal/ingest
	$(PERFBENCH_ENV) $(GO) build -C perfbench -o /dev/null .
	$(PERFBENCH_ENV) $(GO) vet -C perfbench ./...

# Fuzz smoke: run every native fuzz target for FUZZTIME each. Go allows
# one -fuzz pattern per package invocation, so iterate explicitly. The
# committed corpora under testdata/fuzz/ replay on every plain
# `go test` run; this target additionally explores new inputs.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	./internal/clean:FuzzRepair \
	./internal/segment:FuzzSplit \
	./internal/grid:FuzzParseCellID \
	./internal/geo:FuzzProjectionRoundTrip \
	./internal/geo:FuzzPolylineWithin \
	./internal/serve:FuzzQueryParsing \
	./internal/ingest:FuzzPointCodec \
	./internal/trace:FuzzReadCSV \
	./internal/trace:FuzzReadBinary \
	./internal/digiroad:FuzzReadCSV \
	./internal/sink:FuzzDecodeSnapshot \
	./internal/cluster:FuzzDecodePartial

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "== fuzz $$pkg $$fn ($(FUZZTIME)) =="; \
		$(GO) test $$pkg -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) -run '^\$$'; \
	done

# Live profiling demo: run a large pipeline workload with the obs debug
# server up and pull a 10 s CPU profile from /debug/pprof/profile while
# it works. Inspect with `go tool pprof cpu.pprof`. The same recipe
# profiles a `make results` run: add -debug-addr to cmd/experiments.
PROFILE_ADDR ?= localhost:6464
profile:
	$(GO) build -o /tmp/taxiflow-profile ./cmd/taxiflow
	/tmp/taxiflow-profile -cars 12 -trips 800 -gatefrac 0.3 -debug-addr $(PROFILE_ADDR) & \
	sleep 2; \
	$(GO) tool pprof -proto -output cpu.pprof "http://$(PROFILE_ADDR)/debug/pprof/profile?seconds=10"; \
	wait
	@echo "wrote cpu.pprof — inspect with: go tool pprof cpu.pprof"

# One bench per paper table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -run xxx ./...

# The repository benchmark (perfbench/, see BENCHMARK.json), briefly:
# each gated workload runs for 2 s and must print "correct": true.
# firehose's output checks include the 1,024-car streamed = batch
# comparison.
perfbench:
	@set -e; for w in firehose serve_mixed; do \
		echo "== perfbench $$w =="; \
		res=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		echo "$$res"; \
		echo "$$res" | grep -Eq '"correct": ?true' || { echo "perfbench $$w: output checks failed"; exit 1; }; \
	done

# bench_snapshot is the one recipe behind the bench-* targets: run a
# benchmark set, tee the output to /tmp/bench_<name>.txt and snapshot
# it via cmd/benchfmt into results/BENCH_<name>.json.
#   $(1) name, $(2) -bench pattern, $(3) go test flags, $(4) packages,
#   $(5) notes (pass a variable: notes hold commas), $(6) optional
#   benchmark-name prefix of frozen baseline lines grepped from
#   results/bench_<name>_seed.txt and fed to benchfmt ahead of the run.
define bench_snapshot
$(GO) test -run xxx -bench '$(2)' $(3) $(4) | tee /tmp/bench_$(1).txt
$(if $(6),{ grep '^$(6)' results/bench_$(1)_seed.txt; cat /tmp/bench_$(1).txt; } | )$(GO) run ./cmd/benchfmt \
	-snapshot "$$(date +%Y-%m-%d)" \
	-command "go test -run xxx -bench '$(2)' $(3) $(4)" \
	-notes "$(5)" \
	$(if $(6),,< /tmp/bench_$(1).txt )> results/BENCH_$(1).json
@echo "wrote results/BENCH_$(1).json"
endef

# Fleet-runner perf trajectory: whole-fleet batch vs stream at 1, 4 and
# GOMAXPROCS workers, medians over 5 repetitions, snapshotted into
# results/BENCH_runner.json.
runner_notes := 8-car fleet x 30 trips/car, seed 42, warm router cache
bench-runner:
	$(call bench_snapshot,runner,BenchmarkFleetRunner,-benchmem -count=5,.,$(runner_notes))

# Serving-layer perf trajectory: sink ingest throughput (single and
# contended writers, publish cost) and query latency per endpoint plus
# p50/p99 under concurrent read+ingest load, medians over 5
# repetitions, snapshotted into results/BENCH_serve.json.
serve_notes := 512-car snapshot, 8-point transitions, one ingest lane
bench-serve:
	$(call bench_snapshot,serve,BenchmarkSink|BenchmarkServe,-benchmem -count=5,./internal/sink/ ./internal/serve/,$(serve_notes))

# Fleet-scale perf trajectory: the cars × format matrix plus
# the per-car ingest microbenches, single-shot runs with medians over 3
# repetitions (one op is a whole fleet). The frozen pre-columnar
# baseline (BenchmarkFleetSeed arms of results/bench_fleet_seed.txt,
# recorded on the seed revision of this workload) is concatenated in
# front so the snapshot carries both sides of the before/after
# comparison. FLEET_CARS=N benchmarks an extra (e.g. 100000) size.
fleet_notes := 32-car pool replicated per fleet size, 3 trips/car, seed 42; BenchmarkFleetSeed = frozen pre-columnar baseline (results/bench_fleet_seed.txt)
bench-fleet:
	$(call bench_snapshot,fleet,^BenchmarkFleet,-benchmem -benchtime=1x -count=3,.,$(fleet_notes),BenchmarkFleetSeed)

# Observability overhead: the BenchmarkFleet workload (1000 cars,
# binary ingest) with the obs stack off (nil tracer —
# must stay within 1% of the pre-observability BENCH_fleet.json arm),
# lineage+metrics only, a 10% trace sample, and every car traced.
obs_notes := 1000-car fleet, binary ingest; obs=off (nil tracer, <=1% of pre-observability BENCH_fleet baseline), obs=lineage adds ledger+metrics, obs=sampled traces 10% of cars, obs=traced traces all
bench-obs:
	$(call bench_snapshot,obs,^BenchmarkFleetObs,-benchmem -benchtime=1x -count=5,.,$(obs_notes))

# Streaming-ingest perf trajectory: the 32-car differential fixture
# replayed as an event-time firehose (ordered, and shuffled within the
# lateness bound), reporting sustained points/s and the p99
# ingest-to-visible latency, admission alone into 600 open trips (ns
# and B per point, without and with the registry and lineage), plus
# the bare NDJSON/binary frame decoders; medians over 5 single-shot
# runs (one op is a whole fleet replay) into results/BENCH_ingest.json.
ingest_notes := 32-car fleet x 3 trips flattened to a point firehose, 30s lateness, watermark every 256 points; ordered vs bounded-shuffle replay through admission/watermark/trip-close into the sink; admission alone: 600 interleaved open trips x 512 points in 512-point batches, no watermark step, obs=off vs registry+lineage; plus NDJSON vs TAXIPNTB decode
bench-ingest:
	$(call bench_snapshot,ingest,^BenchmarkIngest,-benchmem -benchtime=1x -count=5,./internal/ingest/,$(ingest_notes))

# Multi-node scaling trajectory: the paced-feed fleet (every car
# charges a fixed trace-acquisition latency) run by 1 vs 4 real worker
# OS processes coordinated over localhost HTTP, reporting merged-fleet
# cars/s; medians over 3 single-shot runs (one op is a whole cluster
# lifecycle) into results/BENCH_cluster.json. The 4-shard arm must
# hold >=2.5x the single-node baseline.
cluster_notes := 49-car fleet x 4 trips, 200ms paced feed per car; worker processes re-exec the test binary, coordinator pulls+merges partials over localhost HTTP; cars/s is merged-fleet throughput, 4 shards must be >=2.5x 1 shard
bench-cluster:
	$(call bench_snapshot,cluster,^BenchmarkClusterWorkers,-benchtime=1x -count=3,./internal/cluster/,$(cluster_notes))

# Prediction-layer perf trajectory: one /v1/predict evaluation (profile
# fold + weighted shortest path) on a 24x24 street grid with and
# without learned profiles, and one /v1/anomalies evaluation (score +
# fold) at 100 and 1000 cells; medians over 5 repetitions into
# results/BENCH_predict.json.
predict_notes := 24x24 grid (1100 edges), 36 km/h, profiles on every edge at 3 rush hours; anomaly reports score+fold 100/1000 cells + 1 OD against a 4-epoch EW reference
bench-predict:
	$(call bench_snapshot,predict,BenchmarkPredict|BenchmarkAnomalyReport,-benchmem -count=5,./internal/predict/,$(predict_notes))

# Routing-engine perf trajectory: uncached point-to-point search (the
# bidirectional Dijkstra kernel), the same queries from the path cache,
# and the HMM matcher's one-to-many distance batch, over the seed-42
# synthetic Oulu city; medians over 5 repetitions into
# results/BENCH_router.json.
router_notes := seed-42 synthetic Oulu city, 64 random connected node pairs; uncached = bidirectional Dijkstra kernel, cached = path cache of 8192 paths, batch = 2 sources under an 800 m bound plus 2 lookups
bench-router:
	$(call bench_snapshot,router,^BenchmarkShortest,-benchmem -count=5,./internal/roadnet/,$(router_notes))

# Regenerate every paper table and figure (plus ablations) into results/.
results:
	$(GO) run ./cmd/experiments -scale paper -ablations -out results

# results/ is what the code writes: rerun `make results` into a
# temporary directory and compare every file the run writes with its
# copy in results/, byte for byte, naming each one that differs or is
# missing. The run writes no BENCH_*.json snapshot and no
# bench_fleet_seed.txt, so those are not compared. Checked on amd64 at
# GOMAXPROCS 1 and 2; another GOARCH may fuse multiply-adds and move a
# last digit.
results-check:
	@dir=$$(mktemp -d); log=$$(mktemp); trap 'rm -rf "$$dir" "$$log"' EXIT; \
	$(GO) run ./cmd/experiments -scale paper -ablations -out "$$dir" >"$$log" 2>&1 || { cat "$$log"; exit 1; }; \
	bad=0; \
	for f in "$$dir"/*; do \
		b=$${f##*/}; \
		if [ ! -e "results/$$b" ]; then echo "results-check: results/$$b is missing"; bad=1; \
		elif ! cmp -s "$$f" "results/$$b"; then echo "results-check: results/$$b differs from a fresh run"; bad=1; fi; \
	done; \
	if [ $$bad -ne 0 ]; then echo "results-check: run make results and commit what changed"; exit 1; fi; \
	echo "results-check: all $$(ls "$$dir" | wc -l) files the run writes match results/"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/odanalysis
	$(GO) run ./examples/mixedmodel
	$(GO) run ./examples/mapmatching
	$(GO) run ./examples/datacleaning
	$(GO) run ./examples/binarytraces
	$(GO) run ./examples/drivingcoach

clean:
	rm -rf experiments-out
	rm -f cpu.pprof
