# ObjectRunner build and verification targets.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test fmt fmt-check ci check fuzz orbench-check bench bench-smoke bench-load bench-cluster bench-guard bench-baseline profile trace clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	$(GOFMT) -w .

# fmt-check fails (with the offending file list) if any file is not
# gofmt-clean, so CI can gate on formatting without rewriting files.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the exact command set the GitHub workflow runs — keeping it in
# the Makefile means the local gate and CI cannot drift apart.
ci: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -timeout 40m ./...

# check is the extended tier-1 gate (see ROADMAP.md): everything ci
# runs, then the parallel-pipeline, store-shutdown, and serving-cache
# tests twice more under race to shake out scheduling-dependent
# interleavings (singleflight, LRU, spill, drain), plus the symbol-table
# and tokenizer suites (concurrent interning, raw-text/entity edges) and
# the telemetry layer (labeled metrics, flight recorder) under the same
# repeated-race regime. Concurrent Analyze calls on one shared analysis
# base run ten times under race: each run must own its working state.
check: ci
	$(GO) test -race -count=2 -run 'Parallel|Determinis|ExtractBatch|ForEach|Workers|Chunks|Merge|Remap|SmallCorpus' ./...
	$(GO) test -race -count=2 ./internal/store/
	$(GO) test -race -count=2 ./internal/httpserver/
	$(GO) test -race -count=2 ./internal/cluster/
	$(GO) test -race -count=2 ./api/v1/...
	$(GO) test -race -count=2 ./internal/obs/
	$(GO) test -race -count=2 ./internal/symtab/
	$(GO) test -race -count=2 -run 'RawText|Entit|Tokeniz|Stream' ./internal/dom/ ./internal/eqclass/
	$(GO) test -race -count=2 -run 'Serve|SaveLoad|WrapContext|Persist|Close|Drain|StreamVsTreeExtract' .
	$(GO) test -race -count=10 -run 'TestBaseAnalyzeConcurrentMatchesSequential' ./internal/eqclass/

# fuzz runs each fuzz target for a fixed 20 s: the stream-vs-tree
# differentials (the stream pass bails or matches the tree path on any
# input, in extracted objects and in tokens), the cleaned-tree builder
# (a well-formed tree with nothing cleaning removes), the wrapper
# decoder (an error, or a wrapper that encodes again), the daemon's POST
# /v1/extract request decoder (the same request or the same error text
# as encoding/json), its response string escaping (the same bytes as
# json.Marshal), the template's slot-indexed tuple matcher (the same
# spans as the map-keyed reference) and the regex recognizers' literal
# prefilter (it never skips a text the pattern matches). go test fuzzes
# one target per run. Minimizing each new
# input is capped at 1 s: FuzzDecode's inputs are whole wrapper payloads,
# and at the default cap minimization took most of the 20 s. A failing
# input is written under testdata/fuzz/<Target>/, where every plain
# go test replays it.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzStreamVsTree$$' -fuzztime 20s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzStreamTokens$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/eqclass/
	$(GO) test -run '^$$' -fuzz '^FuzzCleanPage$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/clean/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeExtractRequest$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/httpserver/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONString$$' -fuzztime 20s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzMatchTuples$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/template/
	$(GO) test -run '^$$' -fuzz '^FuzzRegexPrefilter$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/recognize/

# orbench-check builds, vets and unit-tests the end-to-end benchmark
# (bench/orbench). It is a module of its own, so `go build ./...` and
# `go test ./...` at the root never compile it; this target catches an
# internal API change that would break it.
orbench-check:
	cd bench/orbench && $(GO) vet ./... && $(GO) test -short ./...

# bench runs every benchmark and additionally records the parallel
# scaling run (BENCH_parallel.json), the serving-cache economics — cold
# wrap vs cache hit vs disk load — and the daemon's in-process extract
# handler, its serve rungs (decode, tokenize, extract, service) and
# corpus cold wrap (BENCH_serve.json), and the allocation profiles of cold
# inference and of cleaning one page (BENCH_alloc.json) as JSON for the perf
# trajectory. Each JSON file is written to a temp path and renamed only
# on success, so a failed run never truncates the previous record.
bench:
	$(GO) test -bench=. -benchmem -run XXX .
	$(GO) test -json -bench='^Benchmark(WrapParallel|AnalyzeFixpoint)$$' -benchmem -run XXX . > BENCH_parallel.json.tmp
	mv BENCH_parallel.json.tmp BENCH_parallel.json
	$(GO) test -json -bench='^Benchmark(ServeCache|ServeHTTP|ServeRungs|WrapHTTP)$$' -benchmem -run XXX . ./internal/httpserver/ > BENCH_serve.json.tmp
	mv BENCH_serve.json.tmp BENCH_serve.json
	$(GO) test -json -bench='^Benchmark(InferAllocs|HTMLParseClean)$$' -benchmem -run XXX . > BENCH_alloc.json.tmp
	mv BENCH_alloc.json.tmp BENCH_alloc.json

# bench-smoke runs the recorded benchmarks once each (-benchtime=1x)
# purely to prove they still compile and complete; CI uploads the JSON
# as an artifact but asserts nothing about the numbers. -benchmem keeps
# allocs/op in the smoke record too.
bench-smoke:
	$(GO) test -json -bench='^Benchmark(WrapParallel|AnalyzeFixpoint)$$' -benchtime=1x -benchmem -run XXX . > BENCH_parallel.json.tmp
	mv BENCH_parallel.json.tmp BENCH_parallel.json
	$(GO) test -json -bench='^Benchmark(ServeCache|ServeHTTP|ServeRungs|WrapHTTP)$$' -benchtime=1x -benchmem -run XXX . ./internal/httpserver/ > BENCH_serve.json.tmp
	mv BENCH_serve.json.tmp BENCH_serve.json
	$(GO) test -json -bench='^Benchmark(InferAllocs|HTMLParseClean)$$' -benchtime=1x -benchmem -run XXX . > BENCH_alloc.json.tmp
	mv BENCH_alloc.json.tmp BENCH_alloc.json

# bench-guard is the perf regression gate: it re-records the parallel
# scaling, serving (cache hit, HTTP extract handler, its serve rungs and
# the daemon's cold wrap of the whole corpus), cold-inference and page-cleaning
# allocation benchmarks
# (tmp+rename, like bench) and compares them against the committed
# baselines under bench/baseline/ with cmd/benchguard, failing on any
# >20% ns/op regression (or a vanished benchmark). A fixed iteration budget repeated GUARD_COUNT
# times keeps wall time in seconds; benchguard takes the minimum across
# repeats, so a single noisy run cannot fail the gate on its own.
# BenchmarkWrapHTTP, one op of which wraps all 49 corpus sources (about
# a second), runs one iteration per repeat instead of GUARD_BENCHTIME.
# allocs/op gates separately (GUARD_ALLOC_TOLERANCE, default strict:
# any increase over a baseline that recorded allocs fails — allocation
# counts are deterministic, unlike wall time), and B/op at a fixed +10%. Both the guard and the
# baseline run at -cpu 1: with more than one P the runtime's own
# goroutine and scheduler allocations vary from run to run, and a
# strict gate would flake on them.
# Knobs: GUARD_BENCHTIME, GUARD_COUNT, GUARD_TOLERANCE,
# GUARD_ALLOC_TOLERANCE.
GUARD_BENCHTIME ?= 20x
GUARD_COUNT ?= 3
GUARD_TOLERANCE ?= 0.20
GUARD_ALLOC_TOLERANCE ?= 0

bench-guard:
	$(GO) test -json -bench='^Benchmark(WrapParallel|AnalyzeFixpoint)$$' -benchtime=$(GUARD_BENCHTIME) -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX . > BENCH_parallel.json.tmp
	mv BENCH_parallel.json.tmp BENCH_parallel.json
	$(GO) test -json -bench='^Benchmark(ServeCache|ServeHTTP|ServeRungs)$$' -benchtime=$(GUARD_BENCHTIME) -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX . ./internal/httpserver/ > BENCH_serve.json.tmp
	$(GO) test -json -bench='^BenchmarkWrapHTTP$$' -benchtime=1x -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX ./internal/httpserver/ >> BENCH_serve.json.tmp
	mv BENCH_serve.json.tmp BENCH_serve.json
	$(GO) test -json -bench='^Benchmark(InferAllocs|HTMLParseClean)$$' -benchtime=$(GUARD_BENCHTIME) -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX . > BENCH_alloc.json.tmp
	mv BENCH_alloc.json.tmp BENCH_alloc.json
	$(GO) run ./cmd/benchguard -tolerance $(GUARD_TOLERANCE) -alloc-tolerance $(GUARD_ALLOC_TOLERANCE) \
		bench/baseline/BENCH_parallel.json:BENCH_parallel.json \
		bench/baseline/BENCH_serve.json:BENCH_serve.json \
		bench/baseline/BENCH_alloc.json:BENCH_alloc.json

# bench-baseline re-records the guard benchmarks and commits them as the
# new baselines (run after a PR that legitimately moves the numbers, on
# the machine whose numbers the guard should trust).
bench-baseline:
	$(GO) test -json -bench='^Benchmark(WrapParallel|AnalyzeFixpoint)$$' -benchtime=$(GUARD_BENCHTIME) -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX . > bench/baseline/BENCH_parallel.json.tmp
	mv bench/baseline/BENCH_parallel.json.tmp bench/baseline/BENCH_parallel.json
	$(GO) test -json -bench='^Benchmark(ServeCache|ServeHTTP|ServeRungs)$$' -benchtime=$(GUARD_BENCHTIME) -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX . ./internal/httpserver/ > bench/baseline/BENCH_serve.json.tmp
	$(GO) test -json -bench='^BenchmarkWrapHTTP$$' -benchtime=1x -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX ./internal/httpserver/ >> bench/baseline/BENCH_serve.json.tmp
	mv bench/baseline/BENCH_serve.json.tmp bench/baseline/BENCH_serve.json
	$(GO) test -json -bench='^Benchmark(InferAllocs|HTMLParseClean)$$' -benchtime=$(GUARD_BENCHTIME) -count=$(GUARD_COUNT) -cpu 1 -benchmem -run XXX . > bench/baseline/BENCH_alloc.json.tmp
	mv bench/baseline/BENCH_alloc.json.tmp bench/baseline/BENCH_alloc.json

# profile regenerates the committed wrap-path CPU profile
# (bench/profile/wrap_workers4.prof) that bench/profile/README.md
# narrates: the full Wrap + ExtractStreamBatchContext path at workers=4 over 50
# iterations. Re-run it after changes that move the inference profile,
# then refresh the README's numbers.
profile:
	$(GO) test -bench='^BenchmarkWrapParallel$$/workers=4' -benchtime=50x -run XXX -cpuprofile bench/profile/wrap_workers4.prof .

# bench-load records serving-tier latency under load: it starts a real
# objectrunnerd over a sitegen corpus and replays it open-loop with
# cmd/loadgen, writing BENCH_load.json (achieved RPS, error and shed
# counts, p50/p90/p95/p99/max latency per source). Knobs via env:
# RPS, DURATION, CONCURRENCY, PAGES, OUT (see scripts/bench_load.sh).
bench-load:
	sh scripts/bench_load.sh

# bench-cluster records the sharded serving tier under load: two real
# objectrunnerd nodes on one consistent-hash ring over a shared wrapper
# spill, replayed open-loop against both — so about half the requests
# cross the forwarding hop — writing BENCH_cluster.json with per-node
# request counts next to the latency quantiles. Same env knobs as
# bench-load (RPS, DURATION, CONCURRENCY, PAGES, OUT).
bench-cluster:
	sh scripts/bench_cluster.sh

# trace runs one books source end to end with a JSONL span trace and the
# EXPLAIN report on stderr.
trace: build
	$(GO) run ./cmd/sitegen -out /tmp/objectrunner-bench -domains books -pages 6
	$(GO) run ./cmd/objectrunner -sod /tmp/objectrunner-bench/books/sod.txt \
		-pages '/tmp/objectrunner-bench/books/bn/page*.html' \
		-dict BookTitle=/tmp/objectrunner-bench/dictionaries/booktitle.txt \
		-dict Author=/tmp/objectrunner-bench/dictionaries/author.txt \
		-trace /tmp/objectrunner-trace.jsonl -report -json >/dev/null
	@echo "trace written to /tmp/objectrunner-trace.jsonl"

clean:
	rm -rf /tmp/objectrunner-bench /tmp/objectrunner-trace.jsonl
	rm -f BENCH_parallel.json.tmp BENCH_serve.json.tmp BENCH_alloc.json.tmp
	rm -f BENCH_load.json.tmp BENCH_cluster.json.tmp
	rm -f bench/baseline/BENCH_parallel.json.tmp bench/baseline/BENCH_serve.json.tmp bench/baseline/BENCH_alloc.json.tmp
