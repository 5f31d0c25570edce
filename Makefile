# Repro build/test entry points. `make check` is the full gate: static
# analysis, a clean build, the test suite under the race detector, and
# validation plus regeneration of the checked-in baselines.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet fmt-check one-builder no-proxy-procs staticcheck race check bench bench-smoke fuzz-smoke snap snap-check timeline-smoke scale-smoke race-sim shuffle loc examples-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file is gofmt-clean: `gofmt -l` lists the ones that are not.
fmt-check:
	@out=$$($(GOFMT) -l cmd internal benchmark examples); \
	if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

# One builder: outside tests, only baseline.Build (internal/baseline/
# system.go) constructs a cluster or a framework, or picks a cluster
# configuration, so every runner reads every option — -device and -fleet
# included — the same way. The verbs-level rig of internal/bench/micro.go,
# with no ranks and no framework, is the one other cluster. A new call site
# of cluster.New, core.New, cluster.FromProfile or a cluster.*Config
# constructor under internal/, cmd/ or examples/ fails.
one-builder:
	@got=$$(grep -rnoE --include='*.go' --exclude='*_test.go' '\b(cluster\.(New|[A-Za-z0-9]*Config|FromProfile)|core\.New)\(' internal cmd examples \
		| sed -E 's/:[0-9]+:/ /' | LC_ALL=C sort); \
	want=$$(printf '%s\n' 'internal/baseline/system.go cluster.DefaultConfig(' 'internal/baseline/system.go cluster.New(' \
		'internal/baseline/system.go cluster.ProfileConfig(' 'internal/baseline/system.go cluster.ProfileConfig(' \
		'internal/baseline/system.go core.New(' 'internal/bench/micro.go cluster.DefaultConfig(' 'internal/bench/micro.go cluster.New('); \
	if [ "$$got" != "$$want" ]; then \
		echo "one-builder: build systems through baseline.Build; call sites:"; echo "$$got"; exit 1; fi

# No proxy process: a proxy's progress engine is an event handler on a
# busy-until clock (internal/core/engine.go), so outside tests internal/core
# spawns nothing, sleeps nothing and needs neither daemons nor kills. A call
# that brings a proxy stack back fails. Likewise a rank's MPI progress runs
# as steps of its busy-until clock (internal/mpi/steps.go): outside tests
# internal/mpi waits on no inbox condition, and the one AdvanceBusy it makes
# is Rank.Compute's, the application's own work.
no-proxy-procs:
	@got=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'Spawn\(|px\.proc|AdvanceBusy\(|SetDaemon|\.Kill\(' internal/core); \
	if [ -n "$$got" ]; then echo "no-proxy-procs: internal/core runs proxies as event handlers; found:"; echo "$$got"; exit 1; fi
	@got=$$(find internal/mpi -name '*.go' ! -name '*_test.go' -exec awk \
		'/^func /{ fn = $$0 } /InboxCond\.Wait\(|AdvanceBusy\(/ && !(/AdvanceBusy\(/ && fn ~ /\) Compute\(/) { print FILENAME ":" FNR ": " $$0 }' {} +); \
	if [ -n "$$got" ]; then echo "no-proxy-procs: internal/mpi progresses as steps, and only Compute sleeps; found:"; echo "$$got"; exit 1; fi

# Runs staticcheck when it is on PATH and skips (loudly) when it is not:
# dev containers without network access cannot `go install` it, but CI does
# and must not skip.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The coroutine switches between the Run caller and the processes are the
# one place the simulator leaves a single goroutine, and only the caller may
# resume or stop a process: repeat the package under the race detector, with
# and without spare Ps, so a breach of that discipline gets thirty chances.
race-sim:
	$(GO) test -race -count=10 -cpu 1,2,4 ./internal/sim/

# The bench, figures and offloadbench tests run under t.Parallel and share
# no package state; a shuffled order catches a test that comes to depend on
# another's leftovers.
shuffle:
	$(GO) test -shuffle=on -count=1 ./internal/bench ./internal/figures ./cmd/offloadbench

# Size trajectory ("least code" as a number): non-test Go lines that are
# neither blank nor a // comment, per package under internal/ and cmd/, and
# their total. CI prints it on every run; CHANGES.md quotes the delta.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec awk \
		'!/^[[:space:]]*($$|\/\/)/ { d = FILENAME; sub("/[^/]*$$", "", d); print d }' {} + \
		| LC_ALL=C sort | uniq -c \
		| awk '{ printf "%6d  %s\n", $$1, $$2; t += $$1 } END { printf "%6d  total\n", t }'

# The examples are the public API's smallest callers (several select their
# system by paper label): build and run each with its defaults, and fail on a
# non-zero exit or on any difference between its stdout and the checked-in
# examples/<name>/output.golden (the simulator is deterministic). The pencil
# FFT also runs on a 1x4 grid, the slab-shaped use of the pencil plan.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "examples-smoke: $$d"; { $(GO) run ./$$d || echo "exit status $$?"; } | diff -u $${d}output.golden -; \
	done
	@echo "examples-smoke: examples/pencilfft/ -p1 1 -p2 4"; \
	{ $(GO) run ./examples/pencilfft -p1 1 -p2 4 || echo "exit status $$?"; } | diff -u examples/pencilfft/output.1x4.golden -

check: fmt-check one-builder no-proxy-procs vet staticcheck build race race-sim shuffle examples-smoke bench-smoke fuzz-smoke snap-check timeline-smoke scale-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ . ./internal/bench/ ./internal/sim/

# Regenerate one checked-in baseline (fig13, tenants, drift, fleet, or the
# slow 1024-rank scale) after an intentional timing or policy change:
# `make snap-drift`. The file is validated before it is written.
snap-%:
	$(GO) run ./cmd/offloadbench snap $*

# Regenerate every baseline that takes seconds (all but scale).
snap:
	$(GO) run ./cmd/offloadbench snap all

# Every checked-in BENCH_*.json passes its claims and, scale excepted,
# regenerates byte for byte at -parallel 1 and 4; the Validate methods
# reject the corruptions they exist to catch.
snap-check:
	$(GO) test -run 'TestBaselines|ValidateRejects|TestSplitDriftWindows' ./internal/bench/

# Perf smoke: allocation budgets on the event core, the fabric's pooled
# transfer action, span recording after a reset, verbs (with and without a
# fault plan), a rate-zero chaos run, the MPI eager and rendezvous pairs
# (0: Wait releases their requests), barrier and NBC alltoall, the staged
# datapath's lease, the basic-primitive pair on both proxy paths (0), the
# group-replay path, the uncached staged gather, the registration cache, a
# stencil iteration (2k iterations allocate what k do), the first
# Ialltoall's objects per message on each system, the bytes per (rank, peer)
# pair of a 16×8 install plus replay (skipped under -race, so `make race`
# never runs it), a warm coll Ialltoall + Wait on each path (host,
# proxies, engine), the time-series sampler (closing 2^k buckets allocates
# at most k+1 times per series, 0 with spare capacity), and the
# serial-vs-parallel determinism guard.
bench-smoke:
	$(GO) test -run 'AllocFree|AllocBudget|BytesPerPair|TestSweepSerialParallelIdentical' -v ./internal/sim/ ./internal/fabric/ ./internal/span/ ./internal/bench/ ./internal/core/ ./internal/datapath/ ./internal/verbs/ ./internal/mpi/ ./internal/regcache/ ./internal/stencil/ ./internal/coll/ ./internal/metrics/

# Fuzz smoke: five seconds of coverage-guided input, on top of the seeds in
# testdata/fuzz/, for each parser of outside text — pattern specs, fleet
# specs and offloadbench command lines — for the verbs retry machinery
# under random fault plans, for the registration cache and the delivery
# counters' exactly-once window against map models, for the kernel's
# firing order against the (at, seq) heap it replaced, and for the policy
# learner's rank lockstep under random Decide/Observe interleavings, and for
# the record pool's free list and slab growth against a map (`go test -fuzz`
# takes one target and one package per run; two workers keep it small).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s -parallel 2 ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzExpandFleet$$' -fuzztime 5s -parallel 2 ./internal/device/
	$(GO) test -run '^$$' -fuzz '^FuzzArgs$$' -fuzztime 5s -parallel 2 ./cmd/offloadbench/
	$(GO) test -run '^$$' -fuzz '^FuzzVerbsFaults$$' -fuzztime 5s -parallel 2 ./internal/verbs/
	$(GO) test -run '^$$' -fuzz '^FuzzCache$$' -fuzztime 5s -parallel 2 ./internal/regcache/
	$(GO) test -run '^$$' -fuzz '^FuzzDeliveries$$' -fuzztime 5s -parallel 2 ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 5s -parallel 2 ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzLearnerLockstep$$' -fuzztime 5s -parallel 2 ./internal/policy/
	$(GO) test -run '^$$' -fuzz '^FuzzPool$$' -fuzztime 5s -parallel 2 ./internal/pool/

# Timeline smoke: the time-series recorder's zero-overhead guards (a live
# and a nil recorder both reproduce the pinned fig13 timings bit for bit), then
# the timeline subcommand at -parallel 1 vs 4 with every export — time
# series JSONL/Prometheus, per-policy Chrome traces, and the rendered
# drift-attribution table (paths stripped) — compared byte for byte.
timeline-smoke:
	$(GO) test -run 'TestTimelineRecorderMatchesFig13Exactly|TestTimelineNilRecorderMatchesFig13Exactly|TestTimelineSweepParallelIdentical' ./internal/bench/
	$(GO) run ./cmd/offloadbench timeline -iters 16 -parallel 1 -o .timeline.p1 > .timeline.p1.out
	$(GO) run ./cmd/offloadbench timeline -iters 16 -parallel 4 -o .timeline.p4 > .timeline.p4.out
	cmp .timeline.p1.jsonl .timeline.p4.jsonl
	cmp .timeline.p1.prom .timeline.p4.prom
	cmp .timeline.p1.measure.trace.json .timeline.p4.measure.trace.json
	cmp .timeline.p1.feedback.trace.json .timeline.p4.feedback.trace.json
	grep -v '^timeseries: \|^trace: ' .timeline.p1.out > .timeline.p1.tbl
	grep -v '^timeseries: \|^trace: ' .timeline.p4.out > .timeline.p4.tbl
	cmp .timeline.p1.tbl .timeline.p4.tbl
	rm -f .timeline.p1.* .timeline.p4.*

# Scale smoke: a reduced 256-rank scale run, whose ordering/overlap claims
# are validated as it is measured (a failed claim is a non-zero exit).
scale-smoke:
	$(GO) run ./cmd/offloadbench scale -maxranks 256
