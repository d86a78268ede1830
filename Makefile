# Targets mirror what .github/workflows/ci.yml runs.

GO ?= go

# Pinned staticcheck (matches the CI step; bump both together).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race debug bench bench-json bench-scale bench-smoke chaos-smoke scale-smoke perf-smoke fuzz lint guard staticcheck fmt vet ci

build:
	$(GO) build ./...

# Tier-1 verify (ROADMAP.md): build plus the full test suite.
test: build
	$(GO) test ./...

# Race pass; -short skips the full-scale experiment replays.
race:
	$(GO) test -race -short ./...

# jengadebug pass (part of `make ci`): the build tag under which memory
# that is handed back — a run to the engine's slab, a prompt array to
# its generator — is poisoned before reuse, and the hand-over counts
# are asserted to balance at every Drain and Reset (internal/debug,
# DESIGN.md "Requests and prompts"), and under which core's every
# Release and CrashReset ends with CheckInvariants (free stacks, prefix
# index, eviction heaps, request-state slab against the page array). One
# -short pass over core and the packages that lend and borrow covers
# TestExitMatrix, TestScenarioMatrix, the recycling stream tests and the
# goldens.
debug:
	$(GO) test -tags jengadebug -short ./internal/core ./internal/engine ./internal/cluster ./internal/workload ./internal/bench

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

# Timed fuzz over the core free pool, the host-tier/map-reference
# differential, the fork/CoW lifecycle, the eviction queue/lazy-heap
# differential, the free-stack/lazy-list and prefix-index/map
# differentials and the fleet-directory/map-reference differential (the
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

# jengalint: the repo's own analyzers (internal/analysis) — the
# machine-enforced determinism contract (DESIGN.md): no map-order
# dependence in golden-affecting packages, no wall-clock/global-rand/
# env reads in sim packages, goroutine confinement, the //jenga:hotpath
# zero-alloc contract (interface boxing included), and comma-ok
# capability assertions. Builds from
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
# copy again; internal/cluster has one serve loop — one placement step
# (the only router.Route call site) and one file that may use
# goroutines and channels — and a second of either is a second loop;
# internal/bench and cmd/jengabench build clusters in one place,
# bench.Run, and a second cluster.Config literal is a second runner;
# the sim clock advances in one place — internal/engine's step is the
# only caller of the cost model's StepTime (internal/gpu defines it,
# cmd/jengaperf times it), and internal/spec, the second step loop that
# speculative decoding used to be, stays deleted; internal/workload
# makes each prompt once at its exact size and fills it in place
# (fillTokens), and a textTokens helper or an append onto a fresh
# []core.Token is the copy-then-grow construction again; per-request
# records are rolled up in one place, engine.Rollup (goodput, SLO
# attainment, percentiles), and a report layer — internal/serve,
# internal/cluster, internal/bench, an example — that calls the
# percentile, attainment or goodput helpers of internal/metrics itself
# is a second roll-up again; the fleet/tier path allocates nothing per
# page — the directory is one flat map of holder bitmasks and the tier
# index one map per group index (a map[string]map[uint64] in either is
# the nested, string-keyed form again, with its per-cell holder slice or
# its second probe), the tier's eviction queue is slotted, so
# evictQueue has no compaction (filter) to come back, and the transfer
# path in internal/core/fleet.go runs on manager scratch, so a fresh
# []PageBlock or map there is a per-page or per-call allocation again;
# a request costs the host no object — runs come from the engine's slab
# free list (internal/engine/runpool.go) and prompts from the
# generator's (internal/workload/promptbuf.go holds the one allocation,
# the free-list miss), so a &run{ or a make([]core.Token anywhere else
# in those packages is an object per request again; what core knows
# about a page lives in arrays sized at New — the request-associated
# free pages are stacks threaded through the page array and the prefix
# index a flat table over it (internal/core/assoc.go, pageindex.go) — so
# a map field in core's group other than the stacks' tops, or the lazy
# per-request lists (freeByReq, spareLists, sweepFreeByReq) anywhere, is
# a structure that grows while serving again.
# (The token's four bytes need no grep: internal/core pins them at
# compile time.)
guard:
	@out=$$(grep -rln '"container/heap"' internal/core --include='*.go' | grep -v '_test\.go$$'); if [ -n "$$out" ]; then echo "container/heap (boxing) is back in internal/core:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'func project(' internal/core --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "core.project (a per-claim copy of the prefix) is back in internal/core:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'append(\[\]core\.Token(nil)' -e 'make(\[\]core\.Token' internal/engine --include='*.go' | grep -v -e '_test\.go:' -e '^internal/engine/tokbuf\.go:'); if [ -n "$$out" ]; then echo "token copies outside the free-list miss in internal/engine:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'router\.Route(' internal/cluster --include='*.go' | grep -v '_test\.go:'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then echo "internal/cluster must have exactly one router.Route call site (the placement step):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rl '^//jenga:concurrent' internal/cluster --include='*.go' | grep -v '_test\.go$$'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then echo "internal/cluster must have exactly one //jenga:concurrent file (the serve loop):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'cluster\.Config{' internal/bench cmd/jengabench --include='*.go' | grep -v '_test\.go:'); if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then echo "internal/bench + cmd/jengabench must have exactly one cluster.Config literal (bench.Run):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'StepTime(' . --include='*.go' | grep -v -e '_test\.go:' -e '^\./internal/gpu/' -e '^\./cmd/jengaperf/' -e '^\./internal/engine/'); if [ -n "$$out" ] || [ -e internal/spec ]; then echo "the sim clock must advance only in internal/engine (no StepTime caller elsewhere, no internal/spec):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'append(\[\]core\.Token{}' -e 'func textTokens(' internal/workload --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "copy-then-grow prompt construction is back in internal/workload:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'map\[string\]map\[uint64\]' internal/core/hosttier.go $$(ls internal/fleet/*.go | grep -v '_test\.go$$')); if [ -n "$$out" ]; then echo "a nested string-keyed map is back in the fleet directory or the host tier:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'func (q \*evictQueue\[E\]) filter(' internal/core --include='*.go'); if [ -n "$$out" ]; then echo "evictQueue.filter (the unslotted tier queue's compaction) is back:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n -e 'make(\[\]PageBlock' -e 'make(map\[' internal/core/fleet.go); if [ -n "$$out" ]; then echo "the fleet transfer path allocates per page or per call again (internal/core/fleet.go runs on manager scratch):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '&run{' internal/engine --include='*.go' | grep -v -e '_test\.go:' -e '^internal/engine/runpool\.go:'); if [ -n "$$out" ]; then echo "a run allocated outside the slab free list in internal/engine (runpool.go):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'make(\[\]core\.Token' internal/workload --include='*.go' | grep -v -e '_test\.go:' -e '^internal/workload/promptbuf\.go:'); if [ -n "$$out" ]; then echo "a prompt allocated outside the one buffer-take function in internal/workload (promptbuf.go):"; echo "$$out"; exit 1; fi
	@out=$$(sed -n '/^type group struct {/,/^}/p' internal/core/manager.go | grep 'map\[' | grep -v '^\s*assocTop '; grep -rn -e freeByReq -e spareLists -e sweepFreeByReq internal cmd --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a page-level structure of core.group that grows while serving is back (a map field other than assocTop, or the lazy per-request lists):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -e 'metrics\.Percentiles\?(' -e 'metrics\.Attainment(' -e 'metrics\.Goodput(' internal/serve internal/cluster internal/bench examples --include='*.go' | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a report layer rolls up per-request records itself (engine.Rollup is the one roll-up):"; echo "$$out"; exit 1; fi

ci: vet lint guard build test race debug chaos-smoke scale-smoke perf-smoke
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
