package jenga_test

import (
	"runtime"
	"testing"

	"jenga"
	"jenga/internal/bench"
)

// TestDecodeStepZeroAlloc is the allocation budget of the hot path: in
// steady-state decode, one engine step performs zero heap allocations —
// no per-step running-list copy, no per-decode projected-context map,
// no Usage map on the sampling path, no free-pool map churn in the
// allocator — and a speculative pair's step, which draws an acceptance,
// appends and commits a burst of up to SpecK+1 tokens over both models'
// groups and prices the draft's passes, adds nothing to that. The
// engine itself keeps nothing per step (SampleEvery is 0: no timeline)
// and the private token buffer, taken from the engine's free list at
// the first generated token, is sized for the request's whole output;
// the one amortized slice left is the allocator's page table, which
// grows by doubling, so the measurement window is placed between two
// doublings. Any regression that allocates per step or per token then
// fails loudly.
//
// Skipped under -short: the race-detector CI pass (-race -short) adds
// instrumentation allocations that are not the engine's.
func TestDecodeStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	spec := &jenga.Spec{
		Name: "zeroalloc", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []jenga.KVGroup{
			{Name: "kv", Kind: jenga.FullAttention, Layers: 2, BytesPerToken: 128, Scope: jenga.ScopeText},
		},
	}
	draft := &jenga.Spec{
		Name: "zeroalloc-draft", Params: 100_000, WeightBytes: 2, HiddenSize: 32,
		Groups: []jenga.KVGroup{
			{Name: "kv", Kind: jenga.FullAttention, Layers: 1, BytesPerToken: 64, Scope: jenga.ScopeText},
		},
	}
	for _, c := range []struct {
		name string
		spec *jenga.Spec
	}{
		{"plain", spec},
		{"speculative", jenga.WithDraft(spec, draft)},
	} {
		t.Run(c.name, func(t *testing.T) {
			mgr, err := jenga.NewManager(jenga.ManagerConfig{
				Spec: c.spec, CapacityBytes: 64 << 20, TokensPerPage: 16, RequestAware: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := jenga.NewEngine(jenga.EngineConfig{
				Spec: c.spec, Manager: mgr, MaxBatchTokens: 2048, MaxSteps: 1 << 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			req := jenga.Request{ID: 1, OutputLen: 4096}
			for j := 0; j < 64; j++ {
				req.Prompt = append(req.Prompt, jenga.Token{ID: int32(j + 1)})
			}
			if err := eng.Submit(&req); err != nil {
				t.Fatal(err)
			}
			// Warm deep into decode so the page table's next doubling
			// lies beyond the measurement window.
			for i := 0; i < 1300; i++ {
				if err := eng.StepOnce(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(128, func() {
				if err := eng.StepOnce(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state decode step allocates %.2f objects per step, want 0", allocs)
			}
			if !eng.Live() {
				t.Fatal("the request finished inside the window: the steps measured were not all decode steps")
			}
		})
	}
}

// TestWarmLookupZeroAlloc pins the warm-lookup budget on the exact
// fixture the committed benchmark trajectory measures: after the first
// lookup hashes the prompt, repeat lookups over the same live sequence
// extend the per-group scratch incrementally and allocate nothing
// (buildView's contract — the scratch lives on the group, and nothing
// returned from Lookup outlives the call).
func TestWarmLookupZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.LookupWarm()
	if err != nil {
		t.Fatal(err)
	}
	// First lookup builds the scratch cold; everything after is warm.
	if err := op.Run(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(128, func() {
		if err := op.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm prefix lookup allocates %.2f objects per call, want 0", allocs)
	}
}

// TestServeArrivalAllocBudget pins the per-arrival cost of the online
// router loop (snapshot every replica, route, submit) on the
// serve_online_arrival fixture at zero. The fixture reuses one request
// value — Submit copies the header out, so nothing about it outlives
// the call — the run comes from the engine's slab free list (one slab
// of 64 per engine, taken during the warm-up here), and the arrival
// queue keeps its array across pops. Anything above zero is a
// regression that allocates per request, per replica, per prompt token
// or per queue operation on the routing path.
func TestServeArrivalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.ServeOnlineArrival()
	if err != nil {
		t.Fatal(err)
	}
	// Warm within one recycle window (RecycleEvery is 512): the
	// measurement below stays inside the near-empty routing regime the
	// fixture is built to hold.
	iter := 0
	for ; iter < 100; iter++ {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(64, func() {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	if allocs != 0 {
		t.Fatalf("online arrival allocates %.2f objects per request, want 0", allocs)
	}
}

// TestClaimReleaseAllocBudget pins what a request costs the allocator
// on a warm manager at zero, on two shapes. claim_release is the
// committed fixture: a one-block prefix claim and cache-preserving
// release that re-keys a 4096-page large page. reserve_release is the
// alloc_small shape — reserve one page, release it uncached — on a
// small pool (bench.AllocSmall's quarter-million-page fixture takes two
// minutes to build; BENCH_core.json records it). Request state, its
// per-group slice and its page tables come from the manager's free
// list (core's takeReq), the claim reads the prompt in place and takes
// its block hashes from the lookup that preceded it, and the release
// and the re-key it triggers allocate nothing (internal/core's
// TestEvictCycleZeroAlloc), so once one request has come and gone the
// next allocates nothing, whatever the prefix length (internal/core's
// TestClaimAllocatesNothingPerToken).
func TestClaimReleaseAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	reserveRelease := func() (*bench.Op, error) {
		mgr, err := jenga.NewManager(jenga.ManagerConfig{
			Spec: &jenga.Spec{
				Name: "reserve-release", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
				Groups: []jenga.KVGroup{
					{Name: "kv", Kind: jenga.FullAttention, Layers: 1, BytesPerToken: 256, Scope: jenga.ScopeText},
					{Name: "pad", Kind: jenga.FullAttention, Layers: 1, BytesPerToken: 512, Scope: jenga.ScopeImage},
				},
			},
			CapacityBytes: 1 << 22, TokensPerPage: 16,
		})
		if err != nil {
			return nil, err
		}
		seq := &jenga.Sequence{Tokens: make([]jenga.Token, 16)}
		return &bench.Op{Run: func(i int) error {
			seq.ID = jenga.RequestID(1000 + i)
			if err := mgr.Reserve(seq, 16, jenga.Tick(i)); err != nil {
				return err
			}
			mgr.Release(seq, false)
			return nil
		}}, nil
	}
	for _, row := range []struct {
		name string
		make func() (*bench.Op, error)
	}{
		{"claim_release", bench.ClaimRelease},
		{"reserve_release", reserveRelease},
	} {
		t.Run(row.name, func(t *testing.T) {
			op, err := row.make()
			if err != nil {
				t.Fatal(err)
			}
			iter := 0
			for ; iter < 64; iter++ {
				if err := op.Run(iter); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(128, func() {
				if err := op.Run(iter); err != nil {
					t.Fatal(err)
				}
				iter++
			})
			if allocs != 0 {
				t.Fatalf("%s allocates %.2f objects per request on a warm manager, want 0", row.name, allocs)
			}
		})
	}
}

// TestFleetFetchAllocBudget pins the fleet miss path at zero on the
// committed fleet_fetch fixture: a prefix missed locally, found in a
// peer's tier, exported, imported over an evicted page and restored by
// the claim allocates nothing on a warm store — the directory cell is a
// bit in a flat map, the tier page a reused slab slot, and the lookup
// views, fetch list, holder batches, page set and fetch report are
// scratch owned by the manager and the store (internal/core's
// TestTierCycleZeroAlloc and internal/fleet's TestFetchZeroAlloc and
// TestDirectoryChurnZeroAlloc pin the parts, a Mamba group and failed
// and skipped batches included).
func TestFleetFetchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.FleetFetch()
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	for ; iter < 64; iter++ {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(128, func() {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	if allocs != 0 {
		t.Fatalf("fleet fetch allocates %.2f objects per request on a warm store, want 0", allocs)
	}
}

// TestColdBatchAllocBudget pins what a cold offline batch costs the
// host, exactly: a fresh manager and engine serve a deep_queue_batch-
// shaped workload (long shared articles plus a question each, all
// waiting at t=0, gemma2's two page sizes, a KV budget small enough that
// the whole-large-page LRU evicts throughout) for less than one heap
// object per request. Nothing in the manager scales with pages touched,
// evictions or requests served — the free stacks, the prefix index and
// the heaps' bounds are arrays built by NewManager — so what is left is
// what scales with the requests live at once: request states by the
// slab, their page tables, the engine's runs and decode buffers, each
// recycled from then on.
//
// The count is the difference of two runtime.ReadMemStats, not
// runtime/metrics' /gc/heap/allocs:objects: the runtime credits an
// allocation to the global counters only when its mcache span is
// refilled or a GC flushes the caches, and this pass is too small to
// run a GC, so the metric reads low by whatever the current spans hold
// — up to a third of the pass, differently every run. ReadMemStats
// stops the world and flushes every cache first; its Mallocs is exact.
func TestColdBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	const requests = 400
	spec, err := jenga.Models.ByName("gemma2-9b")
	if err != nil {
		t.Fatal(err)
	}
	gen := jenga.NewWorkloadGen(42)
	reqs := gen.ArxivQA(gen.Articles(8, 1024), requests, 64)
	jenga.AllAtOnce(reqs)
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 4 << 30, EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := jenga.NewEngine(jenga.EngineConfig{
		Spec: spec, Manager: mgr, Device: jenga.H100(), MaxBatchTokens: 2048, MaxRunning: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.Run(reqs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != requests {
		t.Fatalf("%d of %d requests finished", res.Finished, requests)
	}
	if st := mgr.Stats(); st.LargeEvictions < requests/4 {
		t.Fatalf("%d large-page evictions over %d requests: the budget is not tight enough to churn the cache", st.LargeEvictions, requests)
	}
	if objects := after.Mallocs - before.Mallocs; objects > requests {
		t.Fatalf("cold batch allocated %d objects for %d requests, want at most one per request", objects, requests)
	} else {
		t.Logf("cold batch: %d objects for %d requests", objects, requests)
	}
}
