GO ?= go

# Pinned analysis-tool versions: CI installs exactly these; locally the
# targets run whatever is on PATH and skip (with the install hint) when the
# tool is absent, so `make ci` works on an offline machine.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Directory the determinism target writes its paired run outputs into; CI
# uploads it as a workflow artifact when the diff fails.
DETERMINISM_OUT ?= determinism-out

.PHONY: all fmt-check vet build test test-race staticcheck govulncheck \
	perfbench-test fuzz-smoke bench-smoke ablation-smoke determinism figures-diff \
	bench-json bench-gate bench-crosscheck profile loc ci

all: ci

fmt-check:
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

# The benchmark harness in perfbench/ is its own module outside ./..., so
# `make test` never compiles it; this target does, so deleting or renaming an
# API the harness uses fails here rather than only when the benchmark runs.
perfbench-test:
	cd perfbench && GOWORK=off $(GO) test ./...

# The simulation is single-goroutine by design, but the race detector still
# catches unsynchronised state sneaking into the event machinery.
test-race:
	$(GO) test -race ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (CI installs honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not on PATH; skipping (CI installs golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Ten seconds of native fuzzing of the event queue against its container/heap
# reference model, on top of the committed corpus that `make test` replays.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s ./internal/simkernel

# One fast benchmark iteration per figure family — paper figures, extension
# figures, the overload/adversarial workloads, the scale family's
# 10000-connection point and the massive-scale family's 100k-connection point
# (on the sharded parallel kernel with one thread per host core) — exercising
# the benchmark plumbing end to end without the full sweep.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig04|Fig05|ExtThttpdEpollLoad501|ExtThttpdCompioLoad501|ExtKeepAlive|ExtOverloadKnee/thttpd-poll|ExtWorkloads/slowloris|ExtScale/conns=10000|ExtMassiveScale' -benchtime 1x -figconns 800 .

# Every ablation at a small connection count: a fast end-to-end pass through
# all server families and both dual-mechanism switching paths, so
# dispatch-loop regressions fail the workflow even when unit tests miss them.
ablation-smoke:
	$(GO) run ./cmd/benchfig -ablation -connections 600 -quiet > /dev/null

# The simulation promises byte-identical output for identical inputs AND for
# any kernel thread count; run one rate figure, one multi-worker scaling
# figure, one overload-workload figure, one server-push figure and one chaos
# figure (fig 41: seeded fault injection is part of the promise) twice each
# and diff, then re-run the rate, overload, push and chaos figures on the
# sharded parallel kernel at -threads 2 and 8 and diff those against the
# sequential output. Any map iteration,
# wall-clock dependency or cross-shard ordering leak sneaking into the event
# machinery fails this before it can corrupt a figure comparison. Outputs
# stay in $(DETERMINISM_OUT) so CI can attach them to the failed workflow run.
determinism:
	@rm -rf $(DETERMINISM_OUT) && mkdir -p $(DETERMINISM_OUT)
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -quiet > $(DETERMINISM_OUT)/fig12-a.txt
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -quiet > $(DETERMINISM_OUT)/fig12-b.txt
	$(GO) run ./cmd/benchfig -fig 17 -connections 600 -workers 1,2,4 -quiet > $(DETERMINISM_OUT)/fig17-a.txt
	$(GO) run ./cmd/benchfig -fig 17 -connections 600 -workers 1,2,4 -quiet > $(DETERMINISM_OUT)/fig17-b.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -quiet > $(DETERMINISM_OUT)/fig20-a.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -quiet > $(DETERMINISM_OUT)/fig20-b.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -quiet > $(DETERMINISM_OUT)/fig33-a.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -quiet > $(DETERMINISM_OUT)/fig33-b.txt
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -threads 2 -quiet > $(DETERMINISM_OUT)/fig12-t2.txt
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -threads 8 -quiet > $(DETERMINISM_OUT)/fig12-t8.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -threads 2 -quiet > $(DETERMINISM_OUT)/fig20-t2.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -threads 8 -quiet > $(DETERMINISM_OUT)/fig20-t8.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -threads 2 -quiet > $(DETERMINISM_OUT)/fig33-t2.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -threads 8 -quiet > $(DETERMINISM_OUT)/fig33-t8.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig37-a.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig37-b.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -threads 2 -quiet > $(DETERMINISM_OUT)/fig37-t2.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -threads 8 -quiet > $(DETERMINISM_OUT)/fig37-t8.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig41-a.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig41-b.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -threads 2 -quiet > $(DETERMINISM_OUT)/fig41-t2.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -threads 8 -quiet > $(DETERMINISM_OUT)/fig41-t8.txt
	@diff $(DETERMINISM_OUT)/fig12-a.txt $(DETERMINISM_OUT)/fig12-b.txt \
		&& diff $(DETERMINISM_OUT)/fig17-a.txt $(DETERMINISM_OUT)/fig17-b.txt \
		&& diff $(DETERMINISM_OUT)/fig20-a.txt $(DETERMINISM_OUT)/fig20-b.txt \
		&& diff $(DETERMINISM_OUT)/fig33-a.txt $(DETERMINISM_OUT)/fig33-b.txt \
		&& diff $(DETERMINISM_OUT)/fig12-a.txt $(DETERMINISM_OUT)/fig12-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig12-a.txt $(DETERMINISM_OUT)/fig12-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig20-a.txt $(DETERMINISM_OUT)/fig20-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig20-a.txt $(DETERMINISM_OUT)/fig20-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig33-a.txt $(DETERMINISM_OUT)/fig33-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig33-a.txt $(DETERMINISM_OUT)/fig33-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig37-a.txt $(DETERMINISM_OUT)/fig37-b.txt \
		&& diff $(DETERMINISM_OUT)/fig37-a.txt $(DETERMINISM_OUT)/fig37-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig37-a.txt $(DETERMINISM_OUT)/fig37-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig41-a.txt $(DETERMINISM_OUT)/fig41-b.txt \
		&& diff $(DETERMINISM_OUT)/fig41-a.txt $(DETERMINISM_OUT)/fig41-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig41-a.txt $(DETERMINISM_OUT)/fig41-t8.txt \
		&& echo "determinism: OK (incl. -threads 2/8 matrix)"

# Byte-identity gate for refactors: build benchfig from revision $(BASE) and
# from the working tree, then cmp every figure 4..43
# (-connections 600 -quiet -percentiles) and the whole -ablation output
# (-connections 600 -quiet) between the two. Any difference fails the target.
# The base is exported with `git archive` into a temporary directory (removed
# on exit), so the repository gains no worktree entry even if the run is
# interrupted. Both sides' outputs stay in $(FIGURES_DIFF_OUT) for diffing.
BASE ?= HEAD
FIGURES_DIFF_OUT ?= figures-diff-out
figures-diff:
	@set -e; out=$(FIGURES_DIFF_OUT); tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	rm -rf $$out && mkdir -p $$out/base $$out/new; \
	git archive --format=tar $(BASE) | tar -x -C $$tmp; \
	(cd $$tmp && $(GO) build -o benchfig-base ./cmd/benchfig); \
	$(GO) build -o $$tmp/benchfig-new ./cmd/benchfig; \
	status=0; \
	for n in $$(seq 4 43); do \
		$$tmp/benchfig-base -fig $$n -connections 600 -quiet -percentiles > $$out/base/fig$$n.txt; \
		$$tmp/benchfig-new -fig $$n -connections 600 -quiet -percentiles > $$out/new/fig$$n.txt; \
		cmp -s $$out/base/fig$$n.txt $$out/new/fig$$n.txt || { echo "figures-diff: fig $$n differs"; status=1; }; \
	done; \
	$$tmp/benchfig-base -ablation -connections 600 -quiet > $$out/base/ablation.txt; \
	$$tmp/benchfig-new -ablation -connections 600 -quiet > $$out/new/ablation.txt; \
	cmp -s $$out/base/ablation.txt $$out/new/ablation.txt || { echo "figures-diff: -ablation differs"; status=1; }; \
	if [ $$status -eq 0 ]; then echo "figures-diff: figures 4-43 and -ablation byte-identical to $(BASE)"; \
	else echo "figures-diff: outputs differ; compare $$out/base with $$out/new"; fi; \
	exit $$status

# Refresh the committed benchmark baseline: the key figure points' reply
# rates, p99 latencies and ns/op. Run this (and commit the result) in any PR
# that intentionally moves performance.
bench-json:
	$(GO) run ./cmd/benchgate -emit BENCH_PR10.json

# Gate the working tree against the committed baseline: emit a fresh
# candidate and fail on >5% regression in any simulated metric (reply rate,
# p99). Wall-clock ns/op is a gross-slowdown tripwire only (fail past 2x —
# wall clock jitters even same-machine), and it only means anything when the
# baseline was emitted on this machine; CI runs
# `make bench-gate TIME_TOLERANCE=0` to disable it (different hardware).
TIME_TOLERANCE ?= 1.0
bench-gate:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/benchgate -emit $$tmp -quiet && \
	$(GO) run ./cmd/benchgate -baseline BENCH_PR10.json -candidate $$tmp -time-tolerance $(TIME_TOLERANCE); \
	status=$$?; rm -f $$tmp; exit $$status

# Zero-tolerance parallel determinism gate on the benchmark set: every gated
# point runs once sequentially and once on the sharded kernel with 4 threads,
# and any difference in a simulated metric (reply rate, p99, err%) fails.
# This is the benchmark-level counterpart of `make determinism`'s figure-level
# byte diffs.
bench-crosscheck:
	$(GO) run ./cmd/benchgate -crosscheck 4

# Profile the hot paths: regenerate a representative figure under the CPU,
# heap, mutex-contention and blocking profilers — on the sharded parallel
# kernel, so shard-barrier and ring contention is visible in the mutex/block
# profiles — and leave the pprof files (plus the figure output) in
# $(PROFILE_OUT). Inspect with `go tool pprof $(PROFILE_OUT)/cpu.pprof` (or
# mutex.pprof / block.pprof for synchronization cost).
# CI runs this after a bench-gate failure and uploads the directory, so a
# regression report always ships with the evidence needed to chase it.
PROFILE_OUT ?= profile-out
PROFILE_THREADS ?= 2
profile:
	@rm -rf $(PROFILE_OUT) && mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/benchfig -fig 16 -connections 2000 -threads $(PROFILE_THREADS) -quiet \
		-cpuprofile $(PROFILE_OUT)/cpu.pprof -memprofile $(PROFILE_OUT)/mem.pprof \
		-mutexprofile $(PROFILE_OUT)/mutex.pprof -blockprofile $(PROFILE_OUT)/block.pprof \
		> $(PROFILE_OUT)/fig16.txt
	@echo "profiles written to $(PROFILE_OUT)/ (cpu.pprof, mem.pprof, mutex.pprof, block.pprof)"

# Production Go line counts, tests excluded: the design aim's two tracked
# numbers, cmd+internal and everything outside the perfbench/ module
# (examples and the root package included). Hidden directories such as the
# benchmark's build cache are skipped.
loc:
	@count() { find "$$@" -name '.?*' -prune -o -path ./perfbench -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l; }; \
	echo "cmd+internal        $$(count cmd internal)"; \
	echo "outside perfbench/  $$(count .)"

ci: fmt-check vet staticcheck govulncheck build test perfbench-test fuzz-smoke bench-smoke ablation-smoke determinism
