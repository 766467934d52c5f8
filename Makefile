# Local dev and CI run the exact same commands: .github/workflows/ci.yml
# invokes these targets' command lines verbatim.

GO ?= go

# Tag naming the committed benchmark baseline (BENCH_$(BENCH_TAG).json).
# Bump once per PR that re-baselines; bench-gate compares fresh runs against
# the file this expands to, so bench jobs no longer need per-PR edits.
BENCH_TAG ?= pr6

.PHONY: all build test lint bench bench-baseline bench-gate serve-bench serve-bench-gate fuzz-smoke fmt serve-smoke solver-regression golden

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# One-shot benchmark sweep parsed into a JSON baseline (tools/benchjson).
# CI uploads BENCH_$(BENCH_TAG).json as an artifact, extending the bench
# trajectory (now including the bitsliced Fig8/Fig9 sweeps and the
# serial-vs-parallel collect pair).
# Two steps (not a pipe) so a bench compile failure fails the target instead
# of silently writing an empty baseline.
bench-baseline:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > bench.out
	$(GO) run ./tools/benchjson < bench.out > BENCH_$(BENCH_TAG).json
	@rm -f bench.out
	@echo "wrote BENCH_$(BENCH_TAG).json"

# Regression gate: rerun the sweep and diff it against the committed baseline.
# Exits nonzero when a key benchmark (Fig8/Fig9, end-to-end recovery, the
# collect pair, the exact-vs-PBEM_75 noisy solve pair) regresses >30% in
# ns/op or bytes/op, or when parallel collection falls more than 25% behind
# serial. CI runs this on every PR.
bench-gate:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > bench.out
	$(GO) run ./tools/benchjson -compare BENCH_$(BENCH_TAG).json < bench.out
	@rm -f bench.out

# Serving-path benchmark: beerload boots an in-process beerd and drives the
# mixed cache-heavy workload (85% duplicate profiles, 25% SSE watchers, the
# configuration committed in BENCH_pr10.json), writing the HDR latency
# summary as a benchjson document.
serve-bench:
	$(GO) run ./cmd/beerload -duration 25s -concurrency 16 -dup 0.85 -sse 0.25 -poll 10ms -k 8 -seed 1 -json serve-bench.json
	@echo "wrote serve-bench.json"

# Serving regression gate: rerun the mixed workload and diff it against the
# committed BENCH_pr10.json, direction-aware — jobs/sec failing on a drop,
# p99 latency failing on growth (ns/op of a fixed-duration loaded run is not
# a symmetric metric). Tolerance is wide (50%) because loaded-run throughput
# varies across CI hosts far more than microbenchmark ns/op.
serve-bench-gate:
	$(GO) run ./cmd/beerload -duration 25s -concurrency 16 -dup 0.85 -sse 0.25 -poll 10ms -k 8 -seed 1 -json serve-bench.json
	$(GO) run ./tools/benchjson -compare BENCH_pr10.json -key '' -serve-key BenchmarkServeMixedCacheHeavy -serve-tolerance 0.5 < serve-bench.json
	@rm -f serve-bench.json

# Short coverage-guided fuzz smoke of the SAT solver core, the CNF builder,
# the bitsliced-vs-scalar ECC differential, the noisy drop-k solver's
# recovery-or-clean-UNSAT contract, the DIMACS round trip, the
# simulated-read-vs-reference differential, the on-die row codec against
# its scalar reference, collection counting against its byte-wise
# reference and beerd's job-spec decode/normalize/validate boundary (seed
# corpora committed under internal/*/testdata/fuzz).
# CI runs the same commands.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSolver -fuzztime 15s ./internal/sat
	$(GO) test -run '^$$' -fuzz FuzzCNFBuilder -fuzztime 15s ./internal/sat
	$(GO) test -run '^$$' -fuzz FuzzBitsliced -fuzztime 15s ./internal/ecc
	$(GO) test -run '^$$' -fuzz FuzzNoisyRecover -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCollectCounts -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDimacsRoundTrip -fuzztime 15s ./internal/sat
	$(GO) test -run '^$$' -fuzz FuzzReadRowExact -fuzztime 15s ./internal/dram
	$(GO) test -run '^$$' -fuzz FuzzRowCodec -fuzztime 15s ./internal/ondie
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime 15s ./internal/service

# Graded SATLIB regression suite (internal/sat/satlib): the committed
# uf20/uf50/uuf50 + BEER-formula corpus solved under per-grade conflict
# budgets with checked-in pass thresholds (grading.json — the ratchet), plus
# the unbudgeted differential run of the in-process CDCL engine and its
# recording Dimacs wrapper against the corpus ground truth.
solver-regression:
	$(GO) test -race -v -run 'TestSolverGraded|TestDifferentialBackends|TestGradingRatchetSane|TestCorpusWellFormed' ./internal/sat/satlib

# Boot an ephemeral beerd, submit 8 concurrent fast-window jobs against
# simulated MfrB chips, assert monotonic per-stage progress and that every
# recovered H matches ground truth (see internal/service/smoke.go).
serve-smoke:
	$(GO) run ./cmd/beerd -selfcheck -selfcheck-jobs 8

# Regenerate the recovery-matrix golden file (testdata/recovery_golden.json)
# from the current code. This is the only way to change it: a changed golden
# is a behaviour change and has to be argued in CHANGES.md.
golden:
	$(GO) test -run TestRecoveryGolden . -update

fmt:
	gofmt -w .
