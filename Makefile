GO ?= go

.PHONY: ci vet build test race bench bench-baseline bench-layout bench-serving bench-wire bench-delta bench-store bench-obs bench-radix bench-batch serve-smoke obs-smoke fuzz fuzz-delta fuzz-store fuzz-radix fuzz-wire fuzz-spec lint doccheck fmt-check

# Full local CI pass: what .github/workflows/ci.yml runs.
ci: lint build test race bench serve-smoke obs-smoke

# Docs/lint gate: formatting, vet, and a doc comment on every exported
# symbol of the public API surface (faq.go, internal/server, internal/wire,
# internal/store, internal/spec, internal/obs, internal/sortx).
lint: fmt-check vet doccheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
	  echo "gofmt needed on:"; echo "$$out"; exit 1; fi

doccheck:
	$(GO) run ./cmd/doccheck . ./internal/server ./internal/wire ./internal/store ./internal/spec ./internal/obs ./internal/sortx

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The second run holds the goroutine-leak-checked packages at GOMAXPROCS 2
# first, then 1, even on a one-core machine: the default runtime is built
# once per process, so a run that starts at 1 would hide a leak at 2.
test:
	$(GO) test ./...
	$(GO) test -cpu 2,1 ./internal/core ./internal/server ./cmd/faqrun ./cmd/satcli

# The equivalence harness lowers the block-scan threshold, so -race here
# exercises the parallel executor on real multi-block scans.
race:
	$(GO) test -race ./...

# One-iteration smoke pass over every benchmark, including the parallel
# executor families; see bench_parallel_test.go for the scaling runs.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Benchmark baseline: the parallel-executor and prepared-query families at
# -benchtime 3x, recorded as test2json events in BENCH_PR2.json (CI runs
# this as a non-blocking step; the JSON is the comparable artifact).
bench-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel|BenchmarkPrepared' -benchtime 3x -json . | tee BENCH_PR2.json

# Data-layout benchmarks: CSR trie build (identity + permuted) and galloping
# probe, cold vs warm-cache elimination, columnar factor construction /
# lookup / grouping, plus the parallel and prepared families — all with
# -benchmem so allocation counts are part of the record.  CI runs this as a
# non-blocking step; BENCH_PR4.json is the comparable artifact.
bench-layout:
	$(GO) test -run '^$$' -bench 'BenchmarkLayout' -benchtime 3x -benchmem -json ./internal/join ./internal/factor | tee BENCH_PR4.json
	$(GO) test -run '^$$' -bench 'BenchmarkParallel|BenchmarkPrepared' -benchtime 3x -benchmem -json . | tee -a BENCH_PR4.json

# Serving smoke: boot faqd on a free port, hit /healthz and one /v1/query
# (verified against a local Solve), shut down gracefully.
serve-smoke:
	./scripts/faqd_harness.sh smoke

# Observability smoke: boot faqd with -slow-query=0, run traced queries
# whose span trees must account for wall time, assert /metrics parses as
# Prometheus text with the stage histograms and shape table, and validate
# the slow-query log entries (blocking in CI, alongside serve-smoke).
obs-smoke:
	./scripts/faqd_harness.sh obssmoke

# Serving benchmark: faqload drives shapes × concurrency × duration against
# a live faqd and records the throughput/latency table plus the final
# /statsz snapshot in BENCH_PR3.json (CI runs this as a non-blocking step).
bench-serving:
	./scripts/faqd_harness.sh bench BENCH_PR3.json

# Wire-format benchmark: triangle-fresh with JSON vs binary factor bodies
# (plus the int/tropical multi-domain shapes) against one live faqd;
# BENCH_PR5.json is the comparable artifact (non-blocking in CI).
bench-wire:
	./scripts/faqd_harness.sh benchwire BENCH_PR5.json

# Incremental-maintenance benchmark: triangle-fresh (full binary refresh
# per request, the PR 5 baseline) vs triangle-delta (row changes to
# per-client /v1/delta sessions, verified row for row); BENCH_PR6.json is
# the comparable artifact (non-blocking in CI).
bench-delta:
	./scripts/faqd_harness.sh benchdelta BENCH_PR6.json

# Dataset-store benchmark: triangle-fresh (full factor payload per request,
# JSON and binary — the ship-data baselines) vs triangle-dataset (factors
# uploaded once, queried by name from the mmap-served store with zero
# factor bytes on the wire); BENCH_PR7.json is the comparable artifact
# (non-blocking in CI).
bench-store:
	./scripts/faqd_harness.sh benchstore BENCH_PR7.json

# Observability-overhead benchmark: the plain-triangle cache-hit path with
# tracing disabled (the ≤1% regression gate vs earlier reports) plus
# per-stage breakdowns from one traced probe per shape; BENCH_PR8.json is
# the comparable artifact (non-blocking in CI).
bench-obs:
	./scripts/faqd_harness.sh benchobs BENCH_PR8.json

# Batch-protocol benchmark: small triangle queries driven as single
# requests (JSON and binary factor bodies) and as /v1/batch requests of 32
# items (JSON and fully binary: batch envelope in, streamed result records
# out), every item verified against the oracle.  The acceptance ratio is
# batch-32 triangle vs the single-query binary baseline, same run;
# BENCH_PR10.json is the comparable artifact (non-blocking in CI).
bench-batch:
	./scripts/faqd_harness.sh benchbatch BENCH_PR10.json

# Radix-sort benchmark: the shared packed-key kernel vs the comparison
# argsort it replaced (arity 1-5, 48k rows), the permuted trie build at
# arity 3-5 against its forced-comparison baseline (the ≥4x acceptance
# ratio), and the sort-based projection path — all with -benchmem.  The
# harness then appends a triangle-fresh + triangle-dataset serving probe so
# the stored-order build and probe-loop numbers are part of the same
# record.  BENCH_PR9.json is the comparable artifact (non-blocking in CI).
bench-radix:
	$(GO) test -run '^$$' -bench 'BenchmarkRadixArgsort|BenchmarkComparisonArgsort' -benchtime 30x -benchmem -json ./internal/sortx | tee BENCH_PR9.json
	$(GO) test -run '^$$' -bench 'BenchmarkLayoutTrieBuildPermutedArity|BenchmarkLayoutTrieBuildIdentity|BenchmarkLayoutTrieProbe' -benchtime 100x -benchmem -json ./internal/join | tee -a BENCH_PR9.json
	$(GO) test -run '^$$' -bench 'BenchmarkLayoutProjection' -benchtime 20x -benchmem -json ./internal/factor | tee -a BENCH_PR9.json
	./scripts/faqd_harness.sh benchradix BENCH_PR9.json

# Radix differential fuzz smoke: the bit-span key kernel against the stable
# comparison reference over arbitrary blocks (arity, sign bits, cutoffs);
# CI runs this as a blocking step, beside fuzz-spec.
fuzz-radix:
	$(GO) test -run '^$$' -fuzz FuzzRadixArgsort -fuzztime 10s ./internal/sortx/

# Short fuzz session for the DIMACS parser.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseDIMACS -fuzztime 30s ./internal/cnf/

# Delta fuzz smoke: the wire delta codec round trip, the raw-byte delta
# decoder and the ApplyDeltas differential oracle, a few seconds each (CI
# runs this as a blocking step — it is cheap and catches codec drift).
fuzz-delta:
	$(GO) test -run '^$$' -fuzz FuzzDeltaFrameRoundTrip -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDeltaDecode -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzApplyDeltas -fuzztime 5s ./internal/core/

# Store fuzz smoke: the dataset-file opener against arbitrary bytes — every
# corruption must surface as a typed error, never a panic or a bad read.
fuzz-store:
	$(GO) test -run '^$$' -fuzz FuzzStoreOpen -fuzztime 5s ./internal/store/

# Batch-protocol fuzz smoke: the batch envelope decoder against arbitrary
# bytes (every rejection a typed sentinel, every accepted envelope
# re-encoding identically) and the result-record codec round trip (CI runs
# this as a blocking step, alongside fuzz-delta).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzBatchDecode -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzResultFrameRoundTrip -fuzztime 5s ./internal/wire/

# Spec fuzz smoke: arbitrary bytes through the spec parser and every domain
# builder must yield an error or a query that passes Validate, never a
# panic, and the parser must agree with the retired line-scanner parser
# kept in differential_test.go (CI runs this as a blocking step, beside
# fuzz-wire).
fuzz-spec:
	$(GO) test -run '^$$' -fuzz FuzzSpecParse -fuzztime 5s ./internal/spec/
	$(GO) test -run '^$$' -fuzz FuzzSpecDifferential -fuzztime 5s ./internal/spec/
