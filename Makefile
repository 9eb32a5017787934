# Developer entry points. `make verify` is the pre-merge gate; everything
# else is a convenience wrapper around `go test`.

GO ?= go

.PHONY: build vet test tier1 race oneproc chaos crash crash-supervise bench-check policy-wins verify golden bench bench-pair fuzz-smoke loc

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite; `gofmt -l .` walks
# directories, so unlike the `./...` patterns it descends into bench/.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# tier1 runs the tier-1 gate uncached, `go build ./... && go test
# -count=1 ./...`, and prints its exit status and total wall time, then
# the package lines slowest first (and the full output if it failed).
tier1:
	@out=$$(mktemp); start=$$(date +%s); \
	$(GO) build ./... && $(GO) test -count=1 ./... > "$$out" 2>&1; status=$$?; \
	echo "tier-1: exit $$status, $$(( $$(date +%s) - start )) s wall"; \
	if [ $$status -ne 0 ]; then grep -v '^ok ' "$$out"; fi; \
	awk '($$1 == "ok" || $$1 == "FAIL") && $$3 ~ /s$$/ { t = $$3; sub(/s$$/, "", t); print t "\t" $$0 }' "$$out" | \
		sort -rn | cut -f2-; \
	rm -f "$$out"; exit $$status

race:
	$(GO) test -race ./...

# oneproc runs the log readers' tests on a single P. ScanFiles decodes
# on a goroutine of its own beside fn's; on one P the two take turns, and
# this shows the pipeline needs no second one.
oneproc:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/eventlog ./internal/dataset ./cmd/logtool

# chaos, crash and crash-supervise are named subsets of `make race`,
# for running one suite on its own: `verify` runs each of their tests
# once, in its race step, and not again here.
#
# chaos runs the fault-injection resilience suite under the race
# detector: one seeded HTTP fault profile (latency, outage window,
# panics, drops, errors) against the adserver stack (shed = 429 not
# timeout, panics never kill the process, drain on shutdown) and against
# a cluster member the router must mask, plus the parallel day loop
# against failing/crashing event sinks (no deadlock, no digest drift).
chaos:
	$(GO) test -race -run 'Chaos' ./internal/adserver ./internal/faultinject ./internal/router ./internal/sim

# crash runs the crash-safety suite under the race detector: seeded
# kill-point sweeps proving recover + resume lands on the exact
# trajectory of an uninterrupted run (digest-identical results and
# replayed event logs), plus a real SIGKILL-a-subprocess harness over
# the fraudsim CLI.
crash:
	$(GO) test -race -run 'TestCrash' ./internal/sim ./cmd/fraudsim

# crash-supervise runs the supervised-run suite under -race: the seeds
# x failure-modes equivalence matrix on in-process workers, a harness
# that SIGKILLs real worker subprocesses at seeded points, and the
# disaster-recovery proof — a real fraudsupervise supervisor SIGKILLed
# with its whole process group at seeded checkpoint days (twice, in the
# double-kill case) and finished with `fraudsupervise -resume`. Every
# path must land on the digest of an undisturbed run (DESIGN.md §9). The
# lineage corruption sweep (TestCrashLineage*, part of `make crash`) is
# the matching checkpoint-damage proof.
crash-supervise:
	$(GO) test -race -count=1 ./internal/supervise ./cmd/fraudsupervise

# bench-check vets and tests the benchmark program. bench/ is its own
# module (BENCHMARK.json runs it with `go run -C bench .`), so the root
# `./...` patterns above never reach it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# policy-wins runs the adbench scenarios whose routing-policy wins
# depend on the adserver stack's fixed order: least_loaded reads the
# admission gauge through /statz, and on cache_affinity the fault wrap
# sits inside the response cache. Each run is a whole cluster inside a
# testing/synctest bubble over net.Pipe, so its 2.5 s and 26 s horizons
# pass in virtual time: a few seconds of wall time, whatever the load on
# the machine. The test file builds only under GOEXPERIMENT=synctest
# (Go 1.24), so it is vetted here too. The first build under the
# experiment recompiles the standard library.
policy-wins:
	GOEXPERIMENT=synctest $(GO) vet ./internal/loadgen
	GOEXPERIMENT=synctest $(GO) test -count=1 -run TestRouterPolicyWins ./internal/loadgen

# verify is the full pre-merge gate: static checks, build, the whole
# suite (goldens, determinism, invariants, smoke tests, chaos, the
# crash-safety sweeps single-process and supervised) once under the race
# detector, the log readers on one P, the routing-policy wins, a short
# corpus-plus-exploration pass over every fuzz target, and the benchmark
# module's own checks.
verify: vet build race oneproc policy-wins fuzz-smoke bench-check

# golden regenerates every golden fixture (sim digests, per-experiment
# report outputs, the façade quickstart). Only the packages that define
# the -update-golden flag are targeted; see internal/testutil/README.md
# for when regeneration is legitimate.
golden:
	$(GO) test . ./internal/sim ./internal/report ./internal/adserver ./cmd/adbench ./cmd/experiments -run 'Golden' -update-golden

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-pair runs the repository benchmark (BENCHMARK.json, bench/) on
# workload W at revision BASE and on the working tree, N pairs, the same
# seed on both sides of a pair (SEED, SEED+1, ...) and alternating which
# side runs first, then judges the pairs with `benchdiff -pairs` by the
# merge pipeline's rule (a gain is >= 9/10 wins and a median gap beyond
# the parent's IQR). BASE is exported with `git archive` into the scratch
# directory .bench_pair/ (emptied first); each side's bench is built once
# from its own tree and run from its own bench/ directory for
# BENCHMARK.json's run_seconds. One result line per run is left in
# .bench_pair/old.jsonl and new.jsonl.
#
#	make bench-pair BASE=HEAD~1 W=repro_queries N=10
BASE ?= HEAD
W ?= repro_queries
N ?= 10
SEED ?= 51
bench-pair:
	@set -e; dir=$(CURDIR)/.bench_pair; rm -rf "$$dir"; mkdir -p "$$dir/base"; \
	trap 'rm -rf "$$dir/base" "$$dir/old" "$$dir/new"' EXIT; \
	git archive $(BASE) | tar -x -C "$$dir/base"; \
	(cd "$$dir/base/bench" && $(GO) build -o "$$dir/old" .); \
	(cd bench && $(GO) build -o "$$dir/new" .); \
	one() { (cd "$$1" && "$$2" --workload $(W) --seed "$$3" --seconds 15 --trace 0 2>/dev/null | tail -n 1) >> "$$2.jsonl"; }; \
	for i in $$(seq 1 $(N)); do \
		seed=$$(( $(SEED) + i - 1 )); \
		if [ $$(( i % 2 )) -eq 1 ]; then \
			one "$$dir/base/bench" "$$dir/old" $$seed; one bench "$$dir/new" $$seed; \
		else \
			one bench "$$dir/new" $$seed; one "$$dir/base/bench" "$$dir/old" $$seed; \
		fi; \
		echo "pair $$i/$(N) (seed $$seed) done"; \
	done; \
	$(GO) run ./cmd/benchdiff -pairs "$$dir/old.jsonl" "$$dir/new.jsonl"

# fuzz-smoke runs each fuzz target briefly — enough to exercise the
# corpus plus a short exploration burst. The targets are the top-level
# `func Fuzz...` declarations in the module's _test.go files (bench/,
# testdata and dot directories skipped), one `go test -fuzz` each.
fuzz-smoke:
	@set -e; grep -Ho '^func Fuzz[A-Za-z0-9_]*' $$(find . \( -name bench -o -name testdata -o -name '.?*' \) -prune \
		-o -name '*_test.go' -print | sort) | while IFS=: read -r file fn; do \
		dir=$$(dirname "$$file"); name=$${fn#func }; \
		echo "$(GO) test $$dir -run '^$$' -fuzz '^$$name\$$' -fuzztime 5s"; \
		$(GO) test "$$dir" -run '^$$' -fuzz "^$$name\$$" -fuzztime 5s; \
	done

# loc prints the Go line counts, non-test and test, outside the benchmark
# module — the numbers a PR's "net line delta" is stated in. It counts
# the files in the working tree: tracked, or untracked and not ignored
# (a new file counts before it is staged; a deleted one no longer does).
LOC_FILES = git ls-files -co --exclude-standard -- '*.go' ':!bench' | sort -u | \
	while read -r f; do if [ -f "$$f" ]; then echo "$$f"; fi; done
loc:
	@$(LOC_FILES) | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo non-test
	@$(LOC_FILES) | grep '_test\.go$$' | xargs cat | wc -l | xargs echo test
