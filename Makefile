# Repo verification targets. `make ci` is what the verify step runs: it
# lints everything (go vet, gofmt and the stashvet analyzers), runs the
# full suite under the race detector (which exercises the concurrent paths
# of internal/runner and internal/stashd), runs the engine benchmarks
# once as a compile-and-smoke check, and vets and self-tests the
# benchmark module in perfbench/.

GO ?= go

.PHONY: ci build test race vet fmt-check lint lint-fast mcheck mcheck-smoke fuzz-smoke proto-table proto-table-check bench bench-engine bench-protocol bench-psim bench-trace bench-smoke bench-psim-smoke bench-trace-smoke race-psim perfbench-check

ci: lint race race-psim mcheck-smoke fuzz-smoke proto-table-check bench-smoke bench-psim-smoke bench-trace-smoke bench-protocol perfbench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked Go file is not gofmt-clean, naming the
# files to run `gofmt -w` on. It uses the gofmt of the toolchain $(GO) runs.
fmt-check:
	@files=$$(git ls-files '*.go') && bad=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files) && \
	if [ -n "$$bad" ]; then echo "gofmt: files need formatting:" >&2; echo "$$bad" >&2; exit 1; fi

# lint is vet and fmt-check plus the repo's own analyzers (cmd/stashvet),
# all seven: pool ownership (poolcheck), hot-path zero-alloc (hotpath),
# simulation determinism (determinism), the service-layer concurrency
# family — lock discipline and typed atomics (lockcheck), cancellable
# blocking (ctxcheck), goroutine-send leaks (chanleak) — and parallel-
# engine tile isolation (sharecheck). A finding fails the build (exit 1),
# as does any //stash: directive count above its committed baseline in
# .stashvet-budget (exit 3, so CI can tell "fix the code" from "review
# the budget raise").
lint: vet fmt-check
	$(GO) run ./cmd/stashvet -budget .stashvet-budget ./...

# lint-fast skips go vet: just the stashvet analyzers, for tight
# edit-check loops. Use `go run ./cmd/stashvet -run=<name> ./...` to
# narrow further to one analyzer. Fact recomputation is not skipped:
# facts live in memory for one driver run (no on-disk fact cache), so
# sharecheck re-derives dependency summaries every time.
# Measured cost of the whole facts layer is ~0.1s on this repo (see
# DESIGN.md "Static analysis"), which is noise next to go vet — hence
# lint-fast drops vet, not facts.
lint-fast:
	$(GO) run ./cmd/stashvet ./...

# The three per-class budget gates (ignore-budget, parallel-budget,
# share-budget) that used to live here as shell arithmetic moved into
# stashvet itself: `-budget .stashvet-budget` (see internal/analysis/
# budget.go for the class definitions and semantics).

# mcheck exhaustively model-checks the protocol on the 2-core/1-address
# configuration for every directory organization, then explores the
# 2-core/2-address conflict configuration one injected stimulus deeper
# than CI does (depth 6: 293k-544k states per organization, ~21s in all
# and under 100 MB peak RSS on a 2-CPU Xeon host). See internal/mcheck.
mcheck:
	$(GO) run ./cmd/stashmc -cores 2 -addrs 1 -kind all
	$(GO) run ./cmd/stashmc -cores 2 -addrs 2 -depth 6 -kind all

# mcheck-smoke is the CI slice of mcheck: the exhaustive 2x1 sweep plus
# the depth-5 two-address conflict slice (88k-121k states per
# organization), both over all organizations (~0.2s and ~5s in all on a
# 2-CPU Xeon host). The depth-5 run is the only place fullmap, cuckoo and
# stash-ss reach the conflict slice that deep; proto-table-check covers
# sparse and stash at depth 4.
mcheck-smoke:
	$(GO) run ./cmd/stashmc -cores 2 -addrs 1 -kind all
	$(GO) run ./cmd/stashmc -cores 2 -addrs 2 -depth 5 -kind all

# fuzz-smoke runs the binary-trace decoder fuzzer for a few seconds so CI
# keeps the fuzz target compiling and covers the seeded corruption corpus
# plus whatever mutations fit the time box.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBinarySource -fuzztime 10s ./internal/trace

# proto-table regenerates the model-checked transition tables embedded in
# PROTOCOL.md; proto-table-check (in ci) fails when they have drifted
# from what the protocol actually does.
proto-table:
	$(GO) run ./cmd/stashmc -table PROTOCOL.md

proto-table-check:
	$(GO) run ./cmd/stashmc -table PROTOCOL.md -check

test:
	$(GO) test ./...

# perfbench-check builds, vets and self-tests the benchmark. perfbench/ is
# a module of its own, so `./...` in the targets above never compiles it,
# and an API change that breaks the benchmark would otherwise pass CI.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

race:
	$(GO) test -race ./...

# race-psim runs the parallel-engine packages under the race detector on
# their own so a full-suite race run is never the only thing standing
# between a barrier bug and main.
race-psim:
	$(GO) test -race -count=1 ./internal/psim ./internal/system

# bench records the engine scheduler benchmarks into BENCH_engine.json
# (the repo's perf trajectory), then runs the figure/table suite.
bench: bench-engine bench-protocol
	$(GO) test -bench=. -benchmem

# bench-engine records the scheduler benchmarks into BENCH_engine.json and
# fails if the After1, After0Burst, Mixed or FarFuture benchmark allocates:
# the wheel and heap paths recycle arena slots, so a steady-state event
# never allocates. The Legacy baselines allocate by design.
bench-engine:
	@$(GO) test -run '^$$' -bench BenchmarkEngine -benchmem ./internal/sim | $(GO) run ./cmd/benchjson -o BENCH_engine.json -max-allocs 0 -max-allocs-filter 'BenchmarkEngine(After1|After0Burst|Mixed|FarFuture)' || \
		{ echo "bench-engine: scheduler hot path allocates; run 'make lint' — the hotpath analyzer pinpoints allocation sites in //stash:hotpath functions" >&2; exit 1; }

# bench-protocol records the coherence hot-path benchmarks, the
# directory organizations' conflict cycle and the model checker's
# exploration rate (BenchmarkExplore: the sparse and stash 2x2 slices to
# depth 2, in states/s) into BENCH_protocol.json. It fails if any
# steady-state protocol or directory path allocates: the pooled-message/
# pooled-TBE design is a zero-allocs/op contract, enforced here in CI.
# The explorer builds its fabrics and grows its visited set, so the gate
# leaves it out. When it fails, start with the static picture: `make
# lint` — the hotpath analyzer usually names the exact allocation site
# that broke the contract.
bench-protocol:
	@$(GO) test -run '^$$' -bench 'BenchmarkProtocol|BenchmarkDirectory|BenchmarkExplore' -benchmem ./internal/coherence ./internal/core ./internal/mcheck | $(GO) run ./cmd/benchjson -o BENCH_protocol.json -max-allocs 0 -max-allocs-filter 'BenchmarkProtocol|BenchmarkDirectory' || \
		{ echo "bench-protocol: allocation contract broken; run 'make lint' — the hotpath analyzer pinpoints allocation sites in //stash:hotpath functions" >&2; exit 1; }

# bench-psim records the serial-vs-parallel engine sweep (16-core model,
# shards 0/2/4/8) into BENCH_psim.json. The events/sec ratio between the
# shards=N and serial entries is the parallel speedup; it needs host
# parallelism (GOMAXPROCS > 1) to exceed 1, and the benchmark names embed
# the host core count so recorded sweeps compare like with like.
bench-psim:
	$(GO) test -run '^$$' -bench BenchmarkPsim -benchmem ./internal/system | $(GO) run ./cmd/benchjson -o BENCH_psim.json

# bench-trace records the trace-pipeline benchmarks into BENCH_trace.json:
# the text-vs-binary replay comparison (internal/trace, 1M-access streams)
# and the cost of building the private-16 and scale-256 machines
# (internal/system). The zero-alloc gate applies only to the ReplayBinary
# entries — the binary hot path's contract — since the text baseline and
# the machine builds allocate by design.
bench-trace:
	@$(GO) test -run '^$$' -bench 'BenchmarkTrace|BenchmarkBuild' -benchmem ./internal/trace ./internal/system | $(GO) run ./cmd/benchjson -o BENCH_trace.json -max-allocs 0 -max-allocs-filter 'ReplayBinary' || \
		{ echo "bench-trace: binary replay hot path allocates; run 'make lint' — the hotpath analyzer pinpoints allocation sites in //stash:hotpath functions" >&2; exit 1; }

# bench-smoke runs the scheduler micro-benchmarks for 10000 events each,
# enough that a warm-up allocation rounds to 0 allocs/op while a per-event
# one still shows, and gates them like bench-engine, so ci catches
# benchmark bit-rot without paying full measurement time. The full-system
# path is perfbench-check's to compile and self-test.
bench-smoke:
	@$(GO) test -run '^$$' -bench 'BenchmarkEngine(Legacy)?(After1|After0Burst|Mixed|FarFuture)$$' -benchtime=10000x -benchmem ./internal/sim | $(GO) run ./cmd/benchjson -max-allocs 0 -max-allocs-filter 'BenchmarkEngine(After1|After0Burst|Mixed|FarFuture)' > /dev/null || \
		{ echo "bench-smoke: scheduler hot path allocates; run 'make lint'" >&2; exit 1; }

bench-psim-smoke:
	$(GO) test -run '^$$' -bench BenchmarkPsim -benchtime=1x -benchmem ./internal/system

bench-trace-smoke:
	@$(GO) test -run '^$$' -bench 'BenchmarkTrace|BenchmarkBuild' -benchtime=1x -benchmem ./internal/trace ./internal/system | $(GO) run ./cmd/benchjson -max-allocs 0 -max-allocs-filter 'ReplayBinary' > /dev/null || \
		{ echo "bench-trace-smoke: binary replay hot path allocates; run 'make lint'" >&2; exit 1; }
