GO ?= go
# BENCHTIME tunes the tracked bench suite; CI smoke runs use a short
# value (e.g. BENCHTIME=1x) so the job bounds on build+vet, not timing.
BENCHTIME ?= 1s
BENCHOUT ?= BENCH_pr9.json
# BASELINE is the checked-in reference the regression gate compares
# fresh runs against; REGRESS_PCT is the tolerated drop before failing.
BASELINE ?= BENCH_pr9.json
REGRESS_PCT ?= 10

.PHONY: all build test tier1 check race race-obs race-durable race-memo race-health race-service health-smoke service-smoke bench bench-all bench-sched bench-regression vet clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the gate every change must keep green.
tier1: build test

# vet also fails on any Go file gofmt would rewrite; hidden
# directories (.git, benchmark build caches) are skipped.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

# Pre-build the race-instrumented packages so compilation of later
# packages does not overlap running test binaries — the wall-clock
# shape tests are timing-sensitive on small machines.
race:
	$(GO) build -race ./...
	$(GO) test -race ./...

# race-obs is the focused race gate for the observability plane: span
# pooling, the monitor's atomics, and the manager hot path they ride on
# are the concurrency-dense code most likely to regress under -race.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/wfm/...

# race-durable is the focused race gate for durable execution: the
# journal's group committer runs concurrently with appenders, rotation,
# and Close/Abort, and the manager journals from every worker goroutine
# — the lock split (staging vs file I/O) is exactly the kind of code
# -race exists for.
race-durable:
	$(GO) test -race ./internal/journal/... ./internal/wfm/...

# race-memo is the focused race gate for content-addressed memoization:
# every worker goroutine records output manifests through the shared
# memoState/Cache on task completion while the drain loop reads hit
# state, and the cache's buffered appender is locked independently.
race-memo:
	$(GO) test -race ./internal/memo/... ./internal/wfm/...

# race-health is the focused race gate for the run-health plane: the
# straggler watchdog scans in-flight attempts while workers start and
# finish them, speculation races two attempts over one task slot, and
# the monitor/tracker expositions read concurrently with the hooks.
race-health:
	$(GO) test -race ./internal/health/... ./internal/metrics/... ./internal/wfm/...

# race-service is the focused race gate for the multi-run control
# plane: the fair-share dispatcher grants task slots from every run's
# worker goroutines while runs start/finish/cancel, the run registry
# is read by HTTP handlers concurrently with executors, and the shared
# TaskGate is exactly the cross-manager state wfmd adds on top of wfm.
race-service:
	$(GO) test -race ./internal/wfmd/... ./internal/wfm/...

# service-smoke boots the real wfmd binary, submits runs for two
# tenants over HTTP, kills the daemon mid-run (SIGKILL), restarts it on
# the same data dir, and asserts every run resumes to success — the
# end-to-end version of the restart/resume tests.
service-smoke:
	./scripts/service_smoke.sh

# health-smoke runs the straggler campaign end to end: injected-tail
# tasks must all be flagged, speculative retry must cut the makespan by
# >= 25%, and the journal must stay duplicate-free with speculation on.
# cmd/experiments exits non-zero if any of those gates fail.
health-smoke:
	$(GO) run ./cmd/experiments -suite health -health-tasks 16 -health-delay-ms 800

# check is the pre-merge bar: tier1 plus vet and the race detector.
check: tier1 vet race

# bench runs the tracked throughput suite — scheduler drains on
# chain/fanout/diamond/random DAGs at 1k/10k/100k tasks (CSR vs the
# map-based baseline), manager scheduling-mode and allocation
# benchmarks, invocations/sec against the in-process platform, and the
# memoized 100k-task re-run — and records the parsed results in
# $(BENCHOUT).
bench:
	@tmp=$$(mktemp) || exit 1; \
	( $(GO) test ./internal/dag -run xxx -bench 'SchedulerThroughput|CSRBuild' -benchmem -benchtime $(BENCHTIME) && \
	  $(GO) test ./internal/wfm -run xxx -bench 'BenchmarkScheduling|Allocs|TracingOverhead|JournalOverhead|HealthOverhead' -benchmem -benchtime $(BENCHTIME) -short -timeout 1800s && \
	  $(GO) test . -run xxx -bench 'InvocationThroughput|MemoizedRerun' -benchmem -benchtime $(BENCHTIME) -timeout 1800s \
	) > $$tmp 2>&1; \
	status=$$?; cat $$tmp; \
	if [ $$status -ne 0 ]; then rm -f $$tmp; echo "bench: benchmark run failed" >&2; exit 1; fi; \
	$(GO) run ./cmd/benchfmt -q -o $(BENCHOUT) < $$tmp; \
	rm -f $$tmp

# bench-regression re-runs the invocation-throughput and memoized-rerun
# benchmarks and fails (exit 2 from benchfmt) if invocations/s or the
# memo cache's re-run tasks/s dropped more than $(REGRESS_PCT)% against
# the checked-in $(BASELINE). benchfmt gates one metric per pass, so
# the same output is checked twice. Single-run benchmarks are noisy on
# small machines, hence the generous default.
bench-regression:
	@tmp=$$(mktemp) || exit 1; \
	$(GO) test . -run xxx -bench 'InvocationThroughput|MemoizedRerun' -benchmem -benchtime $(BENCHTIME) -timeout 1800s > $$tmp 2>&1; \
	status=$$?; cat $$tmp; \
	if [ $$status -ne 0 ]; then rm -f $$tmp; echo "bench-regression: benchmark run failed" >&2; exit 1; fi; \
	$(GO) run ./cmd/benchfmt -baseline $(BASELINE) -regress-metric invocations/s -regress-pct $(REGRESS_PCT) < $$tmp; \
	status=$$?; \
	$(GO) run ./cmd/benchfmt -q -baseline $(BASELINE) -regress-metric tasks/s -regress-pct $(REGRESS_PCT) < $$tmp >/dev/null || status=2; \
	rm -f $$tmp; exit $$status

# bench-all sweeps every benchmark in the repo (paper figures included).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-sched compares phase-barrier vs dependency-driven scheduling on
# the synthetic shapes and the incremental ready-set scheduler.
bench-sched:
	$(GO) test ./internal/wfm -run xxx -bench 'BenchmarkScheduling|Allocs' -benchmem
	$(GO) test ./internal/dag -run xxx -bench 'Scheduler|Levels' -benchmem

clean:
	$(GO) clean ./...
