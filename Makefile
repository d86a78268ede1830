# Targets mirror what .github/workflows/ci.yml runs.

GO ?= go

# Pinned staticcheck (matches the CI step; bump both together).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race debug bench bench-json bench-scale bench-smoke chaos-smoke scale-smoke perf-smoke pairs examples fuzz lint guard staticcheck fmt vet loc loc-check ci

build:
	$(GO) build ./...

# Tier-1 verify (ROADMAP.md): build plus the full test suite.
test: build
	$(GO) test ./...

# Race pass; -short skips the full-scale experiment replays.
race:
	$(GO) test -race -short ./...

# jengadebug pass (part of `make ci`): the build tag under which memory
# that is handed back — a run to the engine's slab, an Out or a filled
# prompt buffer to the engine's free lists — is poisoned before reuse,
# and the hand-over counts (runs, Out and prompt buffers) are asserted
# to balance at every Drain and Reset (internal/debug, DESIGN.md
# "Requests and prompts"), under which core's record recounts a
# request's image tokens at every read of its count, and under which core's every
# Release and CrashReset ends with CheckInvariants (free stacks, prefix
# index, eviction heaps, request-state slab against the page array, the
# host tier, the free large pages), under which the fleet transfer
# path's borrowed views — a page set, a fetch list — are scribbled when
# they lapse and a page set its holder voided panics on import, under which a released host-tier pin is
# scribbled so a restore reading through it panics, under which each
# Lookup's longest valid prefix is recomputed by the linear scan, and
# under which every scheduler View the engine hands out has its waiting
# and running entries checked against a fresh fill. One -short pass over core, the
# packages that lend and borrow, and the scheduler matrix (sched, serve)
# covers TestExitMatrix, TestScenarioMatrix, the recipe stream tests,
# the fleet store, the scheduler simulations and the goldens.
debug:
	$(GO) test -tags jengadebug -short ./internal/core ./internal/engine ./internal/sched ./internal/serve ./internal/cluster ./internal/workload ./internal/bench ./internal/fleet

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable scorecards, mirrored by the CI artifact uploads. One
# command runs every scorecard of cmd/jengabench's table (scorecards.go)
# and stores each in its file: BENCH_serving.json gets the routers,
# stream (scheduler x preempt mode under a memory-pressured overload),
# fanout (copy-on-write fork vs naive branches), fleet (fleet KV store
# vs recompute, migration vs shedding) and chaos (crash recovery off vs
# on) sections — all deterministic, so regenerating them leaves the
# committed file unchanged unless behaviour changed
# (TestScorecardsMatchCommitted gates exactly that) — and BENCH_core.json
# gets the allocator/engine hot-path trajectory (ns/op, allocs/op, sim
# anchor; its baseline set is preserved across runs). Writing one
# section carries every other over byte for byte.
bench-json:
	$(GO) run ./cmd/jengabench -scorecard all -bench-json .

# Full-size scale benchmark: one million streamed requests on a
# 16-replica fleet through ServeStream, swept across shard counts,
# with a serial ServeOnline baseline pair — writes the scale section
# of BENCH_serving.json. Several minutes of wall time and host-dependent
# numbers, so it is not part of `-scorecard all`/CI; rerun it when the
# streaming or sharding paths change.
bench-scale:
	$(GO) run ./cmd/jengabench -scorecard scale -bench-json .

# Benchmark smoke: every benchmark must still run (one iteration each),
# so the committed perf trajectory cannot rot.
bench-smoke:
	$(GO) test -run NONE -bench=. -benchtime=1x .

# Chaos smoke (part of `make ci`): a short seeded crash-restart
# schedule with peer-transfer faults runs under the race detector,
# recovery off and on — the recovery path (CrashOut/CrashReset,
# directory invalidation, redispatch, bounded retry) must stay
# deterministic and race-free, and every request must be accounted for.
chaos-smoke:
	$(GO) test -race -run TestChaosSmoke -v ./internal/bench/

# Scale smoke (part of `make ci`): a ~100k-request streamed ServeStream
# pass over the 16-replica fleet under the race detector, asserting the
# workload is never materialized (peak live heap bounded far below the
# materialized slice's cost) and every request is served. -short skips
# it elsewhere so `make race` doesn't run it twice.
scale-smoke:
	$(GO) test -race -run TestScaleSmoke -v ./internal/bench/

# Perf smoke (part of `make ci`, offline, ~15 s): one traced pass of the
# benchmark's everything-on workload. The traced pass runs the workload
# twice, bare and behind cmd/jengaperf's timing decorators, and fails
# unless both produce identical simulated statistics; it also checks the
# sim anchor. The decorators forward core.Manager / TierManager / Forker
# and nothing else, so a behaviour that hides behind a new capability
# interface diverges here, in CI, not in the benchmark.
perf-smoke:
	bash cmd/jengaperf/run.sh -workload online_overload -seconds 0 -trace 1

# The ten-pair protocol behind every perf claim: BASE (a revision) is
# checked out with git worktree under .bench_build/base, and each of N
# pairs runs the benchmark's `cmd/jengaperf/run.sh -workload W` once on
# BASE and once on the working tree, the side that goes first
# alternating from pair to pair (about a minute a pair). `jengabench
# -pairs` then prints, per metric, both medians, the change, the pairs
# the change won and BASE's interquartile range, marks a gain that is
# better in 9 of 10 pairs by more than that range, says whether every
# simulated statistic and the fingerprint match across sides (a report,
# not a gate: a change may move them on purpose), and appends one JSON
# line to BENCH_pairs.jsonl, the per-change trajectory. The worktree is
# removed on exit; the runs' outputs stay in .bench_build/pairs.
#   make pairs BASE=<rev> W=<workload> [N=10] [SEED=<seed>]
N ?= 10
pairs:
	@test -n "$(BASE)" && test -n "$(W)" || { echo "usage: make pairs BASE=<rev> W=<workload> [N=10] [SEED=<seed>]"; exit 2; }
	@set -e; base=.bench_build/base; out=.bench_build/pairs; \
	rev=$$(git rev-parse --verify "$(BASE)^{commit}"); \
	tree=$$(git rev-parse HEAD)$$(test -z "$$(git status --porcelain -- . ':!BENCH_pairs.jsonl')" || echo +dirty); \
	git worktree remove --force $$base 2>/dev/null || rm -rf $$base; rm -rf $$out; mkdir -p $$out; \
	git worktree prune; git worktree add --detach $$base $$rev > /dev/null; trap "git worktree remove --force $$base" EXIT; \
	for i in $$(seq 1 $(N)); do \
		order="base change"; [ $$((i % 2)) -eq 1 ] || order="change base"; \
		for side in $$order; do \
			dir=.; [ $$side = change ] || dir=$$base; \
			bash $$dir/cmd/jengaperf/run.sh -workload $(W) $(if $(SEED),-seed $(SEED)) > $$out/$$side.$$i.out 2>&1 || { cat $$out/$$side.$$i.out; exit 1; }; \
		done; \
		echo "pairs: $$i of $(N) done"; \
	done; \
	$(GO) run ./cmd/jengabench -pairs $$out -base $$rev -tree $$tree -jsonl BENCH_pairs.jsonl

# Tours (part of `make ci`, about two seconds with the build): every
# program under examples/ is built once and run twice. A tour that exits
# non-zero fails, and so does one whose two runs print different output
# once lines naming wall-clock time (`wall`) are dropped: a tour runs in
# simulated time, so what it prints is a function of its code alone.
# Builds and outputs live in a temporary directory removed on exit.
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./examples/... && \
	for bin in "$$dir"/*; do \
		for i in 1 2; do \
			"$$bin" > "$$bin.out$$i" 2>&1 || { echo "examples: $${bin##*/} exited non-zero:"; cat "$$bin.out$$i"; exit 1; }; \
			grep -iv wall "$$bin.out$$i" > "$$bin.cmp$$i" || true; \
		done; \
		diff "$$bin.cmp1" "$$bin.cmp2" > /dev/null || { echo "examples: two runs of $${bin##*/} printed different output:"; diff "$$bin.cmp1" "$$bin.cmp2"; exit 1; }; \
	done

# Timed fuzz over the core free pool, the host-tier/map-reference
# differential, the fork/CoW lifecycle, the eviction queue/lazy-heap
# differential, the free-stack/lazy-list and prefix-index/map
# differentials, the fleet-directory/map-reference differential and the
# prompt recipes' partial fills (the
# CI fuzz step): the seeded corpora always run as part of `make test`;
# this explores beyond them.
# `go test -fuzz` takes one target per run, so each gets its own
# budget.
fuzz:
	$(GO) test -run NONE -fuzz FuzzFreePool -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzHostTier -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzForkLifecycle -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzEvictQueue -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzAssocStacks -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzPageIndex -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzFleetDirectory -fuzztime 5s ./internal/fleet
	$(GO) test -run NONE -fuzz FuzzContentFill -fuzztime 5s ./internal/workload

# jengalint: the repo's own analyzers (internal/analysis) — the
# machine-enforced determinism contract (DESIGN.md): no map-order
# dependence in golden-affecting packages, no wall-clock/global-rand/
# env reads in sim packages, goroutine confinement, the //jenga:hotpath
# zero-alloc contract (interface boxing included), comma-ok capability
# assertions — and no exported name under internal/ that only tests
# use (deadexport; //jenga:api <why> keeps one on purpose). Builds from
# the module itself (standard library only), so it runs fully offline
# and is part of `make ci`. It is a standalone driver rather than a
# `go vet -vettool` plugin because vet's unitchecker protocol needs
# golang.org/x/tools, which this module deliberately does not depend
# on.
lint:
	$(GO) run ./cmd/jengalint ./...

# Static analysis beyond vet and jengalint, pinned so local runs and CI
# agree. `go run pkg@ver` needs module-proxy access, so staticcheck is
# the network-optional extra: CI runs it, offline environments get the
# `make vet` + `make lint` coverage instead.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

fmt:
	gofmt -w .

# Non-test Go lines per package directory and in total (testdata/ and
# the benchmark's .bench_build/ left out), then the total without
# cmd/jengaperf — the counts ROADMAP.md quotes. Informational: nothing
# fails on a number; loc-check does.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1; if (d !~ /^\.\/cmd\/jengaperf/) u += $$1 } \
	END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n%6d total without cmd/jengaperf\n", t, u }'

# Line ceilings (part of `make ci`): LOC holds each package's ceiling,
# in loc's format. A package over its ceiling fails, and so does one
# more than 50 lines under it, so a cut is banked by lowering the line
# in the same diff; a package with no line in LOC, or a line for a
# package that is gone, fails too. A PR that must grow a package raises
# its line and says why in CHANGES.md.
loc-check:
	@$(MAKE) -s loc | awk 'FNR == NR { ceil[$$2] = $$1; next } \
	$$2 == "total" { next } \
	{ seen[$$2] = 1 } \
	!($$2 in ceil) { printf "loc-check: %s has %d lines and no ceiling in LOC\n", $$2, $$1; bad = 1; next } \
	$$1 > ceil[$$2] { printf "loc-check: %s has %d lines, over its ceiling of %d\n", $$2, $$1, ceil[$$2]; bad = 1 } \
	$$1 < ceil[$$2] - 50 { printf "loc-check: %s has %d lines, %d under its ceiling of %d: lower the line in LOC\n", $$2, $$1, ceil[$$2] - $$1, ceil[$$2]; bad = 1 } \
	END { for (d in ceil) if (!(d in seen)) { printf "loc-check: LOC names %s, which has no Go lines\n", d; bad = 1 }; exit bad }' LOC -

vet:
	$(GO) vet ./...

# Source-shape guards (the CI guard step): allocation patterns that were
# removed on purpose and that neither vet nor jengalint would notice
# coming back. The eviction queues are typed (internal/core/evictq.go),
# and a container/heap adapter boxes every entry it is handed; a claim
# reads the prompt in place, and core.project copied it per group; the
# engine borrows prompts and recycles decode buffers
# (internal/engine/tokbuf.go holds the one allocation, the free-list
# miss), and a fresh []core.Token anywhere else in it is a per-request
# copy again; a run's sequence borrows its prompt for the run's whole
# life — decode appends to the engine's Out buffer alone, and a fork
# child copies only its parent's Out — so an append( in non-test
# internal/engine whose last argument spreads a .Prompt, a .Shared or
# seq.Tokens is the per-request prompt copy into a decode buffer again;
# a generated prompt is a recipe until its request arrives, filled once
# into a buffer of the engine's prompt pool (internal/engine's
# fillPrompt) — a migration or a crash redispatch adopts that buffer,
# a fork reads it — so a .Fill( in any other non-test internal/engine
# function is a second fill, or a pending request holding tokens, again,
# and since no generator lends an array any more, a takePrompt,
# recyclePrompt, Recycler or promptSink (SetPromptSink) in non-test code
# is the hand-back path back; internal/cluster has one serve loop — one placement step
# (the only router.Route call site) and one file that may use
# goroutines and channels — and a second of either is a second loop;
# internal/bench and cmd/jengabench build clusters in one place,
# bench.Run, and a second cluster.Config literal is a second runner;
# the sim clock advances in one place — internal/engine's step is the
# only caller of the cost model's StepTime (internal/gpu defines it,
# cmd/jengaperf times it), and internal/spec, the second step loop that
# speculative decoding used to be, stays deleted; internal/workload
# emits a request's own part as a recipe and fills only the heads it
# shares (fillTokens), and a textTokens helper or an append onto a fresh
# []core.Token is the copy-then-grow construction again; per-request
# records are rolled up in one place, engine.Rollup (goodput, SLO
# attainment, percentiles), and a report layer — internal/serve,
# internal/cluster, internal/bench, an example — that calls the
# percentile, attainment or goodput helpers of internal/metrics itself
# is a second roll-up again; the fleet/tier path keeps no Go map — the
# host tier (internal/core/hosttier.go) is flat tables sized from its
# byte budget at New, its index an open-addressed table of block IDs,
# the transfer path (internal/core/fleet.go) finds a group by a scan of
# the few there are, and the fleet directory (non-test internal/fleet)
# is one open-addressed table of holder bitmasks, so a map[ in any of
# them is a structure that hashes strings or grows while serving again —
# the tier's eviction queue is slotted, so evictQueue has no compaction
# (filter) to come back, and the transfer path runs on tier scratch, so
# a fresh []PageBlock there is a per-page or per-call allocation again;
# a request costs the host no object — runs come from the engine's slab
# free list (internal/engine/runpool.go), and a generator allocates only
# the heads its requests share (internal/workload's headTokens), so a
# &run{ outside runpool.go, or a make([]core.Token in any other non-test
# internal/workload function, is an object per request again; what core knows
# about a page lives in arrays sized at New — the request-associated
# free pages are stacks threaded through the page array and the prefix
# index a flat table over it (internal/core/assoc.go, pageindex.go) — so
# a map field in core's group other than the stacks' tops, or the lazy
# per-request lists (freeByReq, spareLists, sweepFreeByReq) anywhere, is
# a structure that grows while serving again; and a block's hash has one
# source, the request's record (internal/core/seqhash.go) over the chain
# function (hash.go), so a hashChain( call in any other non-test core
# file is a second hashing mechanism — a per-group chain, a replay —
# again; and a request has one record in core, its reqState (block
# hashes included), so a map[RequestID] in non-test core other than
# Jenga.reqs and group.assocTop (the free stacks' tops) is a second
# per-request record, probed beside the first, again; and a run's place
# in the engine is one field with one writer — every lifecycle move
# goes through Engine.to (internal/engine/engine.go), which charges the
# time spent in the state it leaves, and only the run{…} literals that
# create a run set a first state — so an assignment to .state anywhere
# else in non-test internal/engine is a move that skips the clock (and
# the jengadebug edge check) again; and a request has one record from
# Submit to the client — a stream's result is the engine's
# RequestMetrics, its State an engine.EventType — so a type StreamState
# or a map[engine.EventType] in non-test internal/serve is a second
# spelling of the terminal states again; and the fleet has one
# consistency rule, the barrier section — a fetch exports and imports
# inside one, where no eviction or crash can run between the two — so a
# Pin or Unpin method on fleet.Directory, or a pins or deferred field in
# it, in non-test internal/fleet is a second protocol that defers
# invalidations behind in-flight exports again; and a single replica
# has one builder — bench.Replica.Build (internal/bench/scenario.go) is
# the one engine.New call in non-test internal/bench,
# internal/experiments and cmd/jengabench, and a second is a figure
# driver, fixture or scorecard hand-building its engine again (a fleet
# is a bench.Scenario); and no knob stays without a caller — a Headroom or
# Slack field, a WithPrefillReserve or withReserve, or a Route method
# on *Cluster (the placement dry run) in non-test internal/ is a
# settable value or path that nothing sets back again; and a large
# page's state is one 16-byte record and a small page's 32 — the
# largePage array with the free large pages a high-water mark plus a
# stack threaded through it, and the free-stack links in a per-group
# side array only a stacked group allocates (internal/core/manager.go)
# — so a largeOwner, cntUsed, cntCached, cntExpired, largeTS,
# largeDirty or freeLarge in non-test internal/core, or an assoc, aprev
# or anext field in type page, is the parallel arrays or the per-page
# links of every group again; and the eviction queue
# (internal/core/evictq.go) reaches an entry's slot, key and order
# through the entry type's own methods, so a func-valued field in type
# evictQueue in non-test internal/core is the slot func — an indirect
# call on every heap swap — again.
# And the scheduler's View is kept, not rebuilt: the running set keeps
# its summaries beside its runs (internal/engine/runqueue.go, runSet)
# as the waiting queue does, so a loop over e.running inside policyView
# is the per-call O(running) rebuild again; the built-in policies read
# the View's summaries in place, so an unexported function or func type
# in non-test internal/sched taking a ReqInfo by value (a, b ReqInfo) is
# two 72-byte copies per comparison again (the exported Compare keeps
# its by-value signature and wraps the pointer form); and a generator
# fills each group's shared prefix once (internal/workload's
# groupPrefix) and lends it to each request as its Shared head, so a
# fillTokens(prompt[:prefixLen] or fillTokens(prompt[:sharedPrefix] in
# non-test internal/workload is the per-request refill again, and a
# copy(prompt, g.groupPrefix( there is the per-request copy again; and
# a cluster's records reach the fleet roll-up one way, the shards'
# retire sinks (internal/cluster/stream.go), and its engines retain
# none, so a .PerRequest read in non-test internal/cluster is a second
# feed, or the retained records, again.
# And what a layer type keeps has one formula, model.Spec.KVBytes (the
# cost model, the PagedAttention baseline and the §3.2 waste analysis
# read it), so a case model.SlidingWindow or model.PyramidWindow in
# non-test code outside internal/model and internal/core is a second
# copy of the window clamp again; and image tokens have one counter,
# core.CountImages, so a .Image() call in non-test internal/ outside
# internal/core is a per-token modality walk again; and a request's
# block hashes are read through one accessor, classHashes.at (runAt for
# run keys, internal/core/seqhash.go), which takes the entries of a
# borrowed Shared head from the manager's memo of it and the rest from
# the request's own array, so indexing .hashes[, .runs[, .head[ or
# .headRuns[ in any other non-test core file reads an entry at the
# wrong offset for a request over a head again.
# And a request holds a block one way: every layer kind's pages go
# through the reservation path (internal/core/lifecycle.go) — a token
# group's blocks and a vision group's embeddings through reserveBlocks,
# a Mamba group's working state and checkpoints through reserveMamba —
# beside a fork's eager copy (forkCopyPage) and a tier restore
# (restoreBlock), so an allocSmall( call in any other non-test core
# function, or a cowPage( call outside reserveBlocks, is a layer kind's
# own allocate or copy-on-write loop again (EncodeImages had one); and
# a Mamba lookup reads its checkpoints through the view's Present like
# every other group's blocks, its table indexed by checkpoint, and a
# host tier exists only with room for a page, so a CheckpointAt,
# ckptPos or hasRoomEver in non-test core is the Mamba side path or the
# tier's dead room test again.
# And the tier/fleet path carries what its callers read: a fleet fetch
# reports tokens and bytes, each batch's outcome is a StoreStats count,
# a page enters the tier through hostTier.admit (the touch of a resident
# page or a store), the tier's byte counts live in its used and capacity
# fields (TierStats reads them), and a claim spans a Mamba group's
# checkpoint through the policy like any group's blocks, so a
# HolderReport, FetchOutcome, MaxAttempts or FetchSkips in non-test
# internal/, a hostTier.spill or a stats.HostUsed write in non-test
# internal/core, or a claimSpan that names model.Mamba is the per-holder
# report, the second admission path, the copied byte count or the Mamba
# branch again.
# And a request's page table in a group covers entries [base, end) —
# a window group's starts at the first block its claim reads and slides
# up past the blocks its window has left — so only reqGroup's own methods
# index it and everything else reads at, set and end: a .table[ in any
# other non-test core function reads an entry at the wrong offset again.
# And a page's §5.1 eviction priority is kept only where something reads
# it — a group's small-page queue or the host tier — in group.prio, which
# New makes only for such a group or manager, and one helper
# (group.setPriority) asks the policy and stores the answer, so a
# priority field in type page, or a .BlockPriority in any other non-test
# core function, is 8 bytes a page that nothing reads, or a policy call
# per completed block whose answer is dropped, again.
# And a layer type is its policy: core reads a group's Kind once, where
# New builds the group (newManager, which marks a Mamba group and the
# vision cache, DefaultPolicy and hashClassOf), and what a request holds
# and is charged (group.held), what expires and what a claim attaches
# all come from the group's Policy, so a .Kind, a .spec.Window or a
# model kind constant in any other non-test core function is a per-kind
# formula that a custom policy's group does not follow again.
# And a batch request is its caller's header until it arrives:
# admitArrivals takes its run then, carving once for a step's arrivals,
# so a Submit( or growRuns( call in Engine.Run is the up-front run per
# request (6,000 of them alive for a whole hetero_churn pass) again.
# (The token's four bytes need no grep: internal/core pins them at
# compile time.)
guard:
	@out=$$(grep -rln '"container/heap"' internal/core --include='*.go' | grep -v '_test\.go$$'); if [ -n "$$out" ]; then echo "container/heap (boxing) is back in internal/core:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'func project(' internal/core --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "core.project (a per-claim copy of the prefix) is back in internal/core:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'append(\[\]core\.Token(nil)' -e 'make(\[\]core\.Token' internal/engine --include='*.go' | grep -v -e '_test\.go:' -e '^internal/engine/tokbuf\.go:'); if [ -n "$$out" ]; then echo "token copies outside the free-list miss in internal/engine:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'append\(.*(\.Prompt|\.Shared|seq\.Tokens)\.\.\.\)' internal/engine --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a prompt is spread into a buffer in internal/engine (a run borrows req.Shared and req.Prompt as seq.Shared and seq.Tokens for its whole life; only seq.Out is the engine's):"; echo "$$out"; exit 1; fi
	@out=$$(awk '/^[ \t]*\/\// { next } { body = $$0 } /^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn); if (!sub(/^[^{]*\{/, "", body)) body = "" } body ~ /\.Fill\(/ && fn != "fillPrompt" { print FILENAME ":" FNR ": in " fn ": " $$0 }' $$(ls internal/engine/*.go | grep -v '_test\.go$$')); if [ -n "$$out" ]; then echo "a prompt recipe is filled outside fillPrompt in internal/engine (a request's own part is filled once, at its arrival; MigrateIn adopts the buffer, a fork reads it):"; echo "$$out"; exit 1; fi
	@out=$$(awk 'FNR == 1 || /^(type|var|const) / { fn = "" } /^[ \t]*\/\// { next } { body = $$0 } /^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn); if (!sub(/^[^{]*\{/, "", body)) body = "" } body ~ /(^|[^A-Za-z0-9_])(Submit|growRuns)\(/ && fn == "Run" { print FILENAME ":" FNR ": in " fn ": " $$0 }' $$(ls internal/engine/*.go | grep -v '_test\.go$$')); if [ -n "$$out" ]; then echo "Engine.Run submits its requests or carves their runs up front again in internal/engine (a batch request is its caller's header until it arrives; admitArrivals takes its run then):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE '\b(takePrompt|recyclePrompt|Recycler)\b|[pP]romptSink' internal cmd examples *.go --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "the prompt hand-back path is back (a generated prompt is a recipe the engine fills at arrival; no generator lends an array, so nothing hands one back):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'router\.Route(' internal/cluster --include='*.go' | grep -v '_test\.go:'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then echo "internal/cluster must have exactly one router.Route call site (the placement step):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rl '^//jenga:concurrent' internal/cluster --include='*.go' | grep -v '_test\.go$$'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then echo "internal/cluster must have exactly one //jenga:concurrent file (the serve loop):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'cluster\.Config{' internal/bench cmd/jengabench --include='*.go' | grep -v '_test\.go:'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then echo "internal/bench + cmd/jengabench must have exactly one cluster.Config literal (bench.Run):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'StepTime(' . --include='*.go' | grep -v -e '_test\.go:' -e '^\./internal/gpu/' -e '^\./cmd/jengaperf/' -e '^\./internal/engine/'); if [ -n "$$out" ] || [ -e internal/spec ]; then echo "the sim clock must advance only in internal/engine (no StepTime caller elsewhere, no internal/spec):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'append(\[\]core\.Token{}' -e 'func textTokens(' internal/workload --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "copy-then-grow prompt construction is back in internal/workload:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'map\[' internal/core/hosttier.go internal/core/fleet.go $$(ls internal/fleet/*.go | grep -v '_test\.go$$')); if [ -n "$$out" ]; then echo "a Go map is back on the tier path (host tier, transfer path or fleet directory; all are flat tables):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'func (q \*evictQueue\[E\]) filter(' internal/core --include='*.go'); if [ -n "$$out" ]; then echo "evictQueue.filter (the unslotted tier queue's compaction) is back:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'make(\[\]PageBlock' internal/core/fleet.go); if [ -n "$$out" ]; then echo "the fleet transfer path allocates per page or per call again (internal/core/fleet.go runs on tier scratch):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '&run{' internal/engine --include='*.go' | grep -v -e '_test\.go:' -e '^internal/engine/runpool\.go:'); if [ -n "$$out" ]; then echo "a run allocated outside the slab free list in internal/engine (runpool.go):"; echo "$$out"; exit 1; fi
	@out=$$(awk '/^[ \t]*\/\// { next } { body = $$0 } /^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn); if (!sub(/^[^{]*\{/, "", body)) body = "" } body ~ /make\(\[\]core\.Token/ && fn != "headTokens" { print FILENAME ":" FNR ": in " fn ": " $$0 }' $$(ls internal/workload/*.go | grep -v '_test\.go$$')); if [ -n "$$out" ]; then echo "a token array allocated outside the shared-head memo in internal/workload (headTokens; a request's own part is a recipe):"; echo "$$out"; exit 1; fi
	@out=$$(sed -n '/^type group struct {/,/^}/p' internal/core/manager.go | grep 'map\[' | grep -v '^\s*assocTop '; grep -rn -e freeByReq -e spareLists -e sweepFreeByReq internal cmd --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a page-level structure of core.group that grows while serving is back (a map field other than assocTop, or the lazy per-request lists):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'hashChain(' internal/core --include='*.go' | grep -v -e '_test\.go:' -e '^internal/core/hash\.go:' -e '^internal/core/seqhash\.go:'); if [ -n "$$out" ]; then echo "a block hash is computed outside the request's record (only internal/core/hash.go and seqhash.go may call hashChain):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'map\[RequestID\]' internal/core --include='*.go' | grep -v -E -e '_test\.go:' -e '^internal/core/manager\.go:[0-9]+:\s*(reqs|assocTop)(\s+|:\s+make\()map\[RequestID\]'); if [ -n "$$out" ]; then echo "a second per-request map in internal/core (only Jenga.reqs and group.assocTop may be keyed by RequestID):"; echo "$$out"; exit 1; fi
	@out=$$(awk '/^func /{ into = /^func \(e \*Engine\) to\(/ } !into && !/^[ \t]*\/\// && /\.state[ \t]*(,[^=]*[^=!<>:]|[-+*\/%&|^]|<<|>>|&\^)?=([^=]|$$)|\.state(\+\+|--)/ { print FILENAME ":" FNR ": " $$0 }' $$(ls internal/engine/*.go | grep -v '_test\.go$$')); if [ -n "$$out" ]; then echo "run.state is written outside Engine.to in internal/engine (every lifecycle move goes through to):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'metrics\.Percentiles\?(' -e 'metrics\.Attainment(' -e 'metrics\.Goodput(' internal/serve internal/cluster internal/bench examples --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a report layer rolls up per-request records itself (engine.Rollup is the one roll-up):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'type StreamState' -e 'map\[engine\.EventType\]' internal/serve --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "internal/serve re-spells the engine's terminal states (a stream's result is the engine's record, its State an engine.EventType):"; echo "$$out"; exit 1; fi
	@out=$$(files=$$(ls internal/fleet/*.go | grep -v '_test\.go$$'); grep -nE 'func \(([A-Za-z_]+ )?\*Directory\) (Pin|Unpin)\(' $$files; sed -n '/^type Directory struct {/,/^}/p' $$files | grep -E '^[[:space:]]*([A-Za-z_]+,[[:space:]]*)*(pins|deferred)([[:space:],]|$$)'); if [ -n "$$out" ]; then echo "fleet.Directory defers invalidations behind pins again (the barrier section is the fleet's one consistency rule; an invalidation acts at once):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'engine\.New(' internal/bench internal/experiments cmd/jengabench --include='*.go' | grep -v '_test\.go:'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ] || ! awk '/^func \(r Replica\) Build\(/,/^}/' internal/bench/scenario.go | grep -q 'engine\.New('; then echo "non-test internal/bench, internal/experiments and cmd/jengabench must have exactly one engine.New call, in bench.Replica.Build (a single replica is a Replica, a fleet a Scenario):"; echo "$$out"; exit 1; fi
	@out=$$(files=$$(ls internal/core/*.go | grep -v '_test\.go$$'); grep -nwE 'largeOwner|cntUsed|cntCached|cntExpired|largeTS|largeDirty|freeLarge' $$files; sed -n '/^type page struct {/,/^}/p' $$files | grep -E '^[[:space:]]*([A-Za-z_][A-Za-z0-9_]*,[[:space:]]*)*(assoc|aprev|anext)([[:space:],]|$$)'); if [ -n "$$out" ]; then echo "core's per-page state is spread out again (the large-page arrays or the free list the largePage record and its returned stack replace, or free-stack links in type page, which live in group.links):"; echo "$$out"; exit 1; fi
	@out=$$(sed -n '/^type evictQueue\[/,/^}/p' $$(ls internal/core/*.go | grep -v '_test\.go$$') | grep -v '^[[:space:]]*//' | grep -n 'func'); if [ -n "$$out" ]; then echo "type evictQueue has a func-valued field again (the entry types' methods give slot, key and order; a func field is an indirect call per swap):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE -e '^[[:space:]]*(Headroom|Slack)([[:space:]]|,)' -e '\b(WithPrefillReserve|withReserve)\b' -e 'func \(([A-Za-z_]+ )?\*Cluster\) Route\(' internal --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a deleted knob is back in non-test internal/ (KVAdmission.Headroom, SLOAdmission.Slack, WithPrefillReserve/withReserve, Cluster.Route):"; echo "$$out"; exit 1; fi
	@files=$$(ls internal/engine/*.go | grep -v '_test\.go$$'); out=$$(awk '/^func \(e \*Engine\) policyView\(/,/^}/' $$files | grep -nE 'for .*e\.running'); if [ -n "$$out" ] || ! grep -q '^func (e \*Engine) policyView(' $$files; then echo "policyView loops over the running set again (its Running is the running set's own summaries, runSet), or policyView is gone from non-test internal/engine:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'func( [a-z][A-Za-z0-9_]*)?\([^)]*[A-Za-z_] ReqInfo[,)]' internal/sched --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "an unexported comparator in internal/sched takes a ReqInfo by value again (the built-ins read the View's summaries through pointers):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'fillTokens(prompt\[:prefixLen\]' -e 'fillTokens(prompt\[:sharedPrefix\]' internal/workload --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a group's shared prefix is filled per request again in internal/workload (groupPrefix fills it once per generator):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'copy(prompt, g\.groupPrefix(' internal/workload --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a group's shared prefix is copied into each prompt again in internal/workload (a request borrows it as its Shared head):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '\.PerRequest' internal/cluster --include='*.go' | grep -v -e '_test\.go:' -e '^[^:]*:[0-9]*:[[:space:]]*//'); if [ -n "$$out" ]; then echo "non-test internal/cluster reads .PerRequest (finished records reach the fleet roll-up through the shards' retire sinks alone):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'case[^:]*model\.(SlidingWindow|PyramidWindow)' . --include='*.go' | grep -v -e '_test\.go:' -e '^\./internal/model/' -e '^\./internal/core/'); if [ -n "$$out" ]; then echo "a window clamp outside internal/model and internal/core (what a layer type keeps is model.Spec.KVBytes):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '\.Image()' internal --include='*.go' | grep -v -e '_test\.go:' -e '^internal/core/'); if [ -n "$$out" ]; then echo "a per-token image walk in non-test internal/ outside internal/core (image tokens are counted by core.CountImages):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE '\.(hashes|runs|head|headRuns)\[' internal/core --include='*.go' | grep -v -e '_test\.go:' -e '^internal/core/seqhash\.go:'); if [ -n "$$out" ]; then echo "a request's block-hash or run-key array is indexed outside internal/core/seqhash.go (every read goes through classHashes.at or runAt, which take a borrowed head's entries from its memo):"; echo "$$out"; exit 1; fi
	@files=$$(ls internal/core/*.go | grep -v '_test\.go$$'); out=$$(awk '/^[ \t]*\/\// { next } { body = $$0 } /^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn); if (!sub(/^[^{]*\{/, "", body)) body = "" } (body ~ /allocSmall\(/ && fn !~ /^(reserveBlocks|reserveMamba|forkCopyPage|restoreBlock)$$/) || (body ~ /cowPage\(/ && fn != "reserveBlocks") { print FILENAME ":" FNR ": in " fn ": " $$0 }' $$files; grep -nwE 'CheckpointAt|ckptPos|hasRoomEver' $$files); if [ -n "$$out" ]; then echo "a block is held outside the reservation path in non-test internal/core (allocSmall only in reserveBlocks, reserveMamba, forkCopyPage and restoreBlock; cowPage only in reserveBlocks), or the Mamba side path or the tier's room test is back (CheckpointAt, ckptPos, hasRoomEver):"; echo "$$out"; exit 1; fi
	@files=$$(ls internal/core/*.go | grep -v '_test\.go$$'); out=$$(grep -rnwE 'HolderReport|FetchOutcome|MaxAttempts|FetchSkips' internal --include='*.go' | grep -v '_test\.go:'; grep -nE -e 'func \(h \*hostTier\) spill\(' -e 'stats\.HostUsed =' $$files; awk '/^func \(g \*group\) claimSpan\(/,/^}/ { if (/model\.Mamba/) print FILENAME ":" FNR ": " $$0 }' $$files); if [ -n "$$out" ]; then echo "the tier/fleet path carries what no caller reads again (HolderReport, FetchOutcome, MaxAttempts or FetchSkips in non-test internal/), a page enters the tier a second way or its byte count is copied (hostTier.spill, a stats.HostUsed write in non-test internal/core), or claimSpan has a Mamba branch again:"; echo "$$out"; exit 1; fi
	@files=$$(ls internal/core/*.go | grep -v '_test\.go$$'); out=$$(awk 'FNR == 1 { own = 0 } /^[ \t]*\/\// { next } /^func / { own = /^func \([A-Za-z_]+ \*reqGroup\) / } !own && /\.table\[/ { print FILENAME ":" FNR ": " $$0 } /^}/ { own = 0 }' $$files); if [ -n "$$out" ]; then echo "a request's page table is indexed outside reqGroup's methods in non-test internal/core (it covers entries [base, end); read it through at, set and end):"; echo "$$out"; exit 1; fi
	@files=$$(ls internal/core/*.go | grep -v '_test\.go$$'); out=$$(sed -n '/^type page struct {/,/^}/p' $$files | grep -E '^[[:space:]]*([A-Za-z_][A-Za-z0-9_]*,[[:space:]]*)*(priority|prio)([[:space:],]|$$)'; awk '/^[ \t]*\/\// { next } { body = $$0 } /^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn); if (!sub(/^[^{]*\{/, "", body)) body = "" } body ~ /\.BlockPriority([^A-Za-z0-9_]|$$)/ && fn != "setPriority" { print FILENAME ":" FNR ": in " fn ": " $$0 }' $$files); if [ -n "$$out" ]; then echo "a page's eviction priority is kept where nothing reads it again (a priority field in type page, or a BlockPriority call outside group.setPriority, the one place that stores into group.prio, which only a small-page-queued group or a tiered manager keeps):"; echo "$$out"; exit 1; fi
	@files=$$(ls internal/core/*.go | grep -v '_test\.go$$'); out=$$(awk 'FNR == 1 || /^(type|var|const) / { fn = "" } /^[ \t]*\/\// { next } { body = $$0 } /^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn); if (!sub(/^[^{]*\{/, "", body)) body = "" } body ~ /\.Kind([^A-Za-z0-9_]|$$)|\.spec\.Window([^A-Za-z0-9_]|$$)|model\.(FullAttention|SlidingWindow|PyramidWindow|Mamba|CrossAttention|VisionEmbedding)([^A-Za-z0-9_]|$$)/ && fn !~ /^(newManager|hashClassOf|DefaultPolicy)$$/ { print FILENAME ":" FNR ": in " fn ": " $$0 }' $$files); if [ -n "$$out" ]; then echo "non-test internal/core reads a group's Kind or declared Window outside New (newManager), hashClassOf and DefaultPolicy (every other path reads the group's policy and its recurrent and vision flags):"; echo "$$out"; exit 1; fi

ci: vet lint guard loc-check build test race debug chaos-smoke scale-smoke perf-smoke examples
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
