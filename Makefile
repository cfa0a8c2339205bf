# Same targets CI runs (.github/workflows/ci.yml), so humans and CI
# invoke identical commands.

GO ?= go

# The perf-trajectory benchmark set (see PERF_FILE and README
# "Performance"), shared by `make perf` and the CI gate (`make
# perf-check`), so adding a benchmark is one edit here.
# BenchmarkAblationOfflineHorizonLP (unanchored) matches both the sparse
# default and its Dense reference variant, so cmd/perf can gate their
# same-run speedup ratio; BenchmarkGeoStep carries the geo fan-out's
# allocs/op gate at every fleet size, BenchmarkGeoLP the sparse LP's
# storage contract (a week of the geo-div ±30% point), and
# BenchmarkSessionSnapshot the one-allocation checkpoint encoder.
PERF_BENCHES = BenchmarkDefaultsSimulation|BenchmarkAblationP5LP$$|BenchmarkAblationOfflineHorizonLP|BenchmarkFleetDispatch|BenchmarkSuiteSequential|BenchmarkGeoStep|BenchmarkGeoLP$$|BenchmarkTuneEvaluate|BenchmarkSessionSnapshot$$

# The committed trajectory file the perf targets write and gate against.
PERF_FILE = BENCH_13.json

# Provenance note perf-check stores in bench-run.json (CI passes the
# commit).
PERF_NOTE ?= make perf-check

# Fuzzing budget for the `fuzz` target (CI smoke uses the default).
FUZZTIME ?= 30s

.PHONY: build test race bench fuzz lint lint-docs docs suite golden cover loc perf perf-bench perf-check serve-smoke tune-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every benchmark, including the
# provision-family point (BenchmarkProvisionGrid). -short skips the
# year-long annual LP (minutes even at one iteration) and the explicit
# timeout keeps a hung benchmark from stalling CI silently.
bench:
	$(GO) test -bench=. -benchtime=1x -short -timeout 15m -run '^$$' .

# Fuzz smoke, one target after another (go test fuzzes one target per
# run), FUZZTIME each: dense-vs-sparse LP parity (FuzzSparseSolveParity:
# random staircase LPs, both solver paths must agree on status and
# objective), the cross-policy physics invariants over random scenarios
# (FuzzPolicyInvariants), and checkpoint restore (FuzzRestore: mutated,
# truncated or version-skewed checkpoints must fail typed, never panic
# or half-restore). Override the budget with FUZZTIME=5m.
fuzz:
	$(GO) test ./internal/lp -run '^$$' -fuzz FuzzSparseSolveParity -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzPolicyInvariants -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzRestore -fuzztime $(FUZZTIME)

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...

# Package-comment lint: every package must carry a godoc package comment
# (see scripts/lint-docs.sh for the exact rule).
lint-docs:
	./scripts/lint-docs.sh

# Documentation surface: every godoc Example must pass (output lines are
# checked verbatim), on top of the lint and package-comment gates.
docs: lint lint-docs
	$(GO) test -run Example ./...

# Full scenario suite (paper + extensions + provisioning + fleet + geo
# + the year-long annual family) on all cores. The annual scenario
# solves the 8760-slot horizon LP on the sparse simplex — minutes, not
# hours, but still the slowest row of the suite.
suite:
	$(GO) run ./cmd/experiments -run paper,ext,provision,fleet,annual,geo

# Golden-file regression gate: diff the paper suite against the
# committed snapshots. Regenerate intentionally with:
#   go test ./internal/experiments -run TestSuiteGolden -update
golden:
	$(GO) test ./internal/experiments -run 'TestSuiteGolden|TestGoldenFilesComplete' -v

# Per-package coverage, mirroring the CI floors (suite 70%, generator 85%,
# baseline 70%, lp 95%, sim 70%, optimize 85%).
cover:
	$(GO) test -cover ./internal/suite ./internal/generator ./internal/baseline ./internal/lp ./internal/sim ./internal/optimize

# Net Go line counts tracked in CHANGES.md: every *.go file outside
# dpssbench/ (and the benchmark's .bench_build/ cache), split into tests
# (*_test.go) and the rest.
LOC_FILES = find . -name '*.go' -not -path './dpssbench/*' -not -path './.bench_build/*'
loc:
	@printf 'non-test %d\ntest     %d\n' \
		$$($(LOC_FILES) -not -name '*_test.go' -exec cat {} + | wc -l) \
		$$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)

# Tuning-family smoke: the three tune scenarios (tuned-vs-default gap,
# seed/regime transfer, SmartDPSS-vs-Lyapunov frontier) on a two-day
# horizon with two seeds through a two-worker pool — fast enough for CI,
# wide enough to exercise the nested tuner fan-out.
tune-smoke:
	$(GO) run ./cmd/experiments -run tune -days 2 -seeds 2 -parallel 2

# Service-mode smoke: start dpss-serve on a replay source, scrape
# /metrics over HTTP, validate the OpenMetrics exposition, and prove a
# checkpointed run resumes across processes (scripts/serve-smoke.sh).
serve-smoke:
	./scripts/serve-smoke.sh

# Run the perf-trajectory benchmarks with -benchmem into bench.out. The
# year-long annual LP joins at one iteration: ~10 s per solve on the
# hyper-sparse kernels, and cmd/perf gates it against a 20 s wall-clock
# budget on the -check path. The output goes to a file, not a pipe, so a
# failing benchmark run fails the target instead of being masked by the
# parser's exit status.
perf-bench:
	$(GO) test -bench='$(PERF_BENCHES)' -benchmem -benchtime=20x -run '^$$' . > bench.out
	$(GO) test -bench=BenchmarkAblationOfflineAnnualLP -benchmem -benchtime=1x -timeout 20m -run '^$$' . >> bench.out

# Regenerate the committed benchmark trajectory file: rewrites
# PERF_FILE's "current" block (its "baseline" block — the commit before
# the session-owned checkpoint encoder — is carried over unchanged;
# older trajectories survive in BENCH_12/10/9/8/7/5/4.json).
perf: perf-bench
	$(GO) run ./cmd/perf -out $(PERF_FILE) -note "make perf" < bench.out
	@rm -f bench.out

# The CI perf gate: fail if a gated benchmark regresses in allocs/op
# versus PERF_FILE or is missing from the run or the file, if the sparse
# horizon LP stops beating its dense reference, or if the annual LP
# blows its wall budget; the fresh numbers land in bench-run.json.
perf-check: perf-bench
	$(GO) run ./cmd/perf -check $(PERF_FILE) -out bench-run.json -note "$(PERF_NOTE)" < bench.out
