// Package bench defines the allocator/engine hot-path micro-benchmark
// fixtures shared by the root benchmark suite (bench_core_test.go) and
// cmd/jengabench -bench-core, so the committed BENCH_core.json
// trajectory measures exactly the code paths the CI benchmarks run.
//
// Each fixture returns a setup-complete Op whose Run executes one
// iteration of the measured hot path. Ops with a Recycle hook need it
// called (untimed) every RecycleEvery iterations to hold the system in
// steady state — without it, context growth would drift the
// measurement out of the regime the benchmark names.
package bench

import (
	"fmt"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/fleet"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// Op is one hot-path micro-benchmark.
type Op struct {
	// Run executes measured iteration i.
	Run func(i int) error
	// Recycle, when non-nil, restores steady state; Loop invokes it
	// outside the timed region every RecycleEvery iterations.
	Recycle      func(i int) error
	RecycleEvery int
}

// Loop drives one fixture under b, excluding steady-state recycles
// from timing and allocation accounting — the single harness behind
// both the root benchmark suite and jengabench -bench-core, so the
// committed trajectory and the CI benchmarks cannot measure different
// regimes.
func Loop(b *testing.B, op *Op) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op.Recycle != nil && op.RecycleEvery > 0 && i > 0 && i%op.RecycleEvery == 0 {
			b.StopTimer()
			if err := op.Recycle(i); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := op.Run(i); err != nil {
			b.Fatal(err)
		}
	}
}

// All enumerates the fixtures in report order.
var All = []struct {
	Name string
	Make func() (*Op, error)
}{
	{"alloc_small", AllocSmall},
	{"claim_release", ClaimRelease},
	{"lookup_warm", LookupWarm},
	{"commit_decode", CommitDecode},
	{"run_step_steady_state", RunStepSteadyState},
	{"serve_online_arrival", ServeOnlineArrival},
	{"fleet_fetch", FleetFetch},
}

// AllocSmall measures one small-page allocation plus release at ~99.9%
// pool utilization with a quarter-million-page pool — the §5.4 step-4
// any-free pop every admission-time reservation ends in once the
// replica is loaded. The fixture interleaves two sequences page by
// page and releases one, so the surviving free pages are scattered
// across half-used large pages; a third sequence then re-occupies all
// but ~200 of them. The "pad" group stores only image tokens, so the
// all-text workload leaves it empty and the LCM geometry gives "kv"
// two small pages per large page (free pages can strand inside
// half-used large pages instead of being reclaimed).
func AllocSmall() (*Op, error) {
	spec := &model.Spec{
		Name: "bench-hiutil", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256, Scope: model.ScopeText},
			{Name: "pad", Kind: model.FullAttention, Layers: 1, BytesPerToken: 512, Scope: model.ScopeImage},
		},
	}
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: false,
	})
	if err != nil {
		return nil, err
	}
	const pages = 131072 // per interleaved sequence: half the kv pool
	a := &core.Sequence{ID: 1}
	b := &core.Sequence{ID: 2}
	for i := 0; i < pages*16; i++ {
		a.Tokens = append(a.Tokens, core.Token{ID: int32(i%50_000 + 1)})
		b.Tokens = append(b.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	for p := 1; p <= pages; p++ {
		if err := mgr.Reserve(a, p*16, 1); err != nil {
			return nil, err
		}
		if err := mgr.Reserve(b, p*16, 1); err != nil {
			return nil, err
		}
	}
	mgr.Release(b, false)
	c := &core.Sequence{ID: 3}
	const cPages = pages - 200
	for i := 0; i < cPages*16; i++ {
		c.Tokens = append(c.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(c, cPages*16, 1); err != nil {
		return nil, err
	}
	seq := &core.Sequence{ID: 1000}
	for i := 0; i < 16; i++ {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i + 1)})
	}
	return &Op{Run: func(i int) error {
		seq.ID = core.RequestID(1000 + i)
		if err := mgr.Reserve(seq, 16, core.Tick(i)); err != nil {
			return err
		}
		mgr.Release(seq, false)
		return nil
	}}, nil
}

// ClaimRelease measures a one-block prefix-cache claim and
// cache-preserving release against a fully cached large page of 4096
// small pages: every release flips the large page back to evictable,
// which re-keys it for the large-page LRU (§5.4 step 3). The
// megabyte-scale image-embedding group (the paper's VLM heterogeneity)
// drives the LCM geometry to 4096 small KV pages per large page.
func ClaimRelease() (*Op, error) {
	spec := &model.Spec{
		Name: "bench-claim", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 64, Scope: model.ScopeText},
			{Name: "embed", Kind: model.FullAttention, Layers: 1, BytesPerToken: 262144, Scope: model.ScopeImage},
		},
	}
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 8 << 20, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	// Fill one large page (4096 kv pages = 65536 tokens) as cache.
	const tokens = 65536
	base := &core.Sequence{ID: 1, PromptLen: tokens}
	for i := 0; i < tokens; i++ {
		base.Tokens = append(base.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(base, tokens, 1); err != nil {
		return nil, err
	}
	mgr.Commit(base, tokens, 1)
	mgr.Release(base, true)
	// Pin one page of a second large page so the probe's uncached tail
	// block allocates from an existing half-used large page instead of
	// carving and reclaiming a fresh one every iteration.
	pin := &core.Sequence{ID: 2}
	pin.Tokens = append(pin.Tokens, core.Token{ID: 7})
	if err := mgr.Reserve(pin, 1, 1); err != nil {
		return nil, err
	}
	probe := &core.Sequence{ID: 3, PromptLen: 17}
	probe.Tokens = append(probe.Tokens, base.Tokens[:17]...)
	return &Op{Run: func(i int) error {
		probe.ID = core.RequestID(100 + i)
		if err := mgr.Reserve(probe, 17, core.Tick(i)); err != nil {
			return err
		}
		mgr.Release(probe, true)
		return nil
	}}, nil
}

// LookupWarm measures the admission-path prefix lookup over a long
// fully cached prompt.
func LookupWarm() (*Op, error) {
	mgr, err := core.New(core.Config{
		Spec: textSpec("bench-lookup"), CapacityBytes: 256 << 20, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	const tokens = 8192
	seq := &core.Sequence{ID: 1, PromptLen: tokens}
	for i := 0; i < tokens; i++ {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(seq, tokens, 1); err != nil {
		return nil, err
	}
	mgr.Commit(seq, tokens, 1)
	mgr.Release(seq, true)
	probe := &core.Sequence{ID: 2, PromptLen: tokens, Tokens: seq.Tokens}
	return &Op{Run: func(int) error {
		if mgr.Lookup(probe) == 0 {
			return fmt.Errorf("bench: expected a warm hit")
		}
		return nil
	}}, nil
}

// CommitDecode measures the per-token decode commit: append one token,
// reserve it, commit it — the core-manager share of every decode step.
// Recycle releases and restarts the sequence before it outgrows the
// pool.
func CommitDecode() (*Op, error) {
	mgr, err := core.New(core.Config{
		Spec: textSpec("bench-commit"), CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	start := func(id core.RequestID, toks []core.Token) (*core.Sequence, error) {
		seq := &core.Sequence{ID: id, PromptLen: 64, Tokens: toks[:64]}
		if err := mgr.Reserve(seq, 64, 0); err != nil {
			return nil, err
		}
		mgr.Commit(seq, 64, 0)
		return seq, nil
	}
	toks := make([]core.Token, 64)
	for i := range toks {
		toks[i] = core.Token{ID: int32(i + 1)}
	}
	seq, err := start(1, toks)
	if err != nil {
		return nil, err
	}
	op := &Op{
		RecycleEvery: 1 << 20,
		Recycle: func(i int) error {
			mgr.Release(seq, false)
			s, err := start(core.RequestID(i), seq.Tokens)
			seq = s
			return err
		},
	}
	op.Run = func(i int) error {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i%50_000 + 1)})
		n := len(seq.Tokens)
		if err := mgr.Reserve(seq, n, core.Tick(i)); err != nil {
			return err
		}
		mgr.Commit(seq, n, core.Tick(i))
		return nil
	}
	return op, nil
}

// RunStepSteadyState measures one engine scheduler step with 32
// decode-phase sequences at 2k context — the steady-state decode loop
// every serving scenario spends most of its simulated time in. Recycle
// cancels the fleet (cache-preserving release) and launches a fresh
// wave over the same prompts, bounding context growth so the
// measurement never drifts into preemption thrash.
func RunStepSteadyState() (*Op, error) {
	spec := textSpec("bench-step")
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Spec: spec, Manager: mgr,
		MaxBatchTokens: 4096, MaxRunning: 64, MaxPrefills: 8,
		MaxSteps: 1 << 40,
	})
	if err != nil {
		return nil, err
	}
	const seqs, ctx = 32, 2048
	nextID := int64(1)
	launch := func() error {
		for i := 0; i < seqs; i++ {
			req := workload.Request{ID: nextID, OutputLen: 1 << 20}
			nextID++
			for j := 0; j < ctx; j++ {
				req.Prompt = append(req.Prompt, core.Token{ID: int32((i*131+j)%50_000 + 1)})
			}
			if err := eng.Submit(&req); err != nil {
				return err
			}
		}
		// Warm until every sequence is decoding.
		for i := 0; i < ctx/128+seqs+64; i++ {
			if err := eng.StepOnce(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := launch(); err != nil {
		return nil, err
	}
	return &Op{
		Run:          func(int) error { return eng.StepOnce() },
		RecycleEvery: 2048,
		Recycle: func(int) error {
			for id := nextID - seqs; id < nextID; id++ {
				eng.Cancel(id)
			}
			return launch()
		},
	}, nil
}

// ServeOnlineArrival measures ServeOnline's per-arrival router-loop
// body — snapshot every replica, route against the live loads, submit
// to the chosen engine — the serial cost the streamed serving path
// amortizes into epochs. Recycle resets the fleet so the pending-queue
// insert never drifts out of the near-empty regime routing runs in.
func ServeOnlineArrival() (*Op, error) {
	spec := textSpec("bench-arrival")
	const replicas = 8
	engines := make([]*engine.Engine, replicas)
	for i := range engines {
		mgr, err := core.New(core.Config{
			Spec: spec, CapacityBytes: 64 << 20, TokensPerPage: 16,
			EnablePrefixCache: true, RequestAware: true,
		})
		if err != nil {
			return nil, err
		}
		eng, err := engine.New(engine.Config{Spec: spec, Manager: mgr})
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	router, err := cluster.NewRouter(cluster.LeastLoaded, replicas, 0, 0)
	if err != nil {
		return nil, err
	}
	loads := make([]cluster.Load, replicas)
	for i := range loads {
		loads[i].Replica = i
	}
	prompt := make([]core.Token, 256)
	for i := range prompt {
		prompt[i] = core.Token{ID: int32(i + 1)}
	}
	base := 0
	// One request value serves every iteration: the router takes it by
	// pointer (through an interface, so it lives on the heap) and the
	// engine copies the header out.
	req := workload.Request{Prompt: prompt, OutputLen: 32}
	op := &Op{
		RecycleEvery: 512,
		Recycle: func(i int) error {
			for _, e := range engines {
				e.Reset()
			}
			for j := range loads {
				loads[j] = cluster.Load{Replica: j}
			}
			base = i
			return nil
		},
	}
	op.Run = func(i int) error {
		req.ID = int64(i + 1)
		req.Arrival = time.Duration(i-base) * 50 * time.Microsecond
		for j, e := range engines {
			snap := e.SnapshotTotals()
			loads[j].Live = true
			loads[j].Usage = snap.Usage
			loads[j].QueueDepth = snap.Pending + snap.Waiting
			loads[j].OutstandingTokens = snap.OutstandingTokens
		}
		rep := router.Route(&req, loads)
		work := int64(len(req.Prompt) + req.OutputLen)
		loads[rep].Requests++
		loads[rep].RoutedTokens += work
		return engines[rep].Submit(&req)
	}
	return op, nil
}

// FleetFetch measures the fleet miss path end to end on a warm
// three-replica store: the destination misses a 256-token prefix
// locally, LookupFleet finds it in a peer's host tier, the holder
// exports its sixteen pages, the destination imports them — evicting
// what it imported three requests ago — and the claim restores them to
// the device; an uncached release puts the destination back where it
// started. Four prefix families, two to a holder, rotate through a
// destination tier that holds two of them, so by the time a family
// comes round again its pages are long gone and every iteration is the
// same miss.
func FleetFetch() (*Op, error) {
	spec := textSpec("bench-fleet")
	const (
		replicas, dst   = 3, 2
		families        = 4
		prefix          = 256
		pagesPerFamily  = prefix / 16
		dstTierFamilies = 2
	)
	geo, err := spec.Geometry(model.LCMPage, 16)
	if err != nil {
		return nil, err
	}
	store := fleet.NewStore(replicas)
	mgrs := make([]*core.Jenga, replicas)
	for i := range mgrs {
		tierPages := families * pagesPerFamily
		if i == dst {
			tierPages = dstTierFamilies * pagesPerFamily
		}
		mgrs[i], err = core.New(core.Config{
			Spec: spec, CapacityBytes: 8 << 20, TokensPerPage: 16,
			EnablePrefixCache: true, RequestAware: true,
			HostTierBytes: int64(tierPages * geo.LargePageBytes),
		})
		if err != nil {
			return nil, err
		}
		if !store.Attach(i, mgrs[i]) {
			return nil, fmt.Errorf("bench: replica %d has no host tier", i)
		}
	}
	probes := make([]*core.Sequence, families)
	for f := range probes {
		seq := &core.Sequence{ID: core.RequestID(f + 1), PromptLen: prefix + 1}
		for j := 0; j <= prefix; j++ {
			seq.Tokens = append(seq.Tokens, core.Token{ID: int32(f*prefix + j + 1)})
		}
		holder := mgrs[f%dst]
		if err := holder.Reserve(seq, len(seq.Tokens), 1); err != nil {
			return nil, err
		}
		holder.Commit(seq, len(seq.Tokens), 1)
		if pages, _ := holder.SwapOut(seq); pages != pagesPerFamily {
			return nil, fmt.Errorf("bench: holder spilled %d pages of family %d, want %d", pages, f, pagesPerFamily)
		}
		probes[f] = seq
	}
	// The rotation is the fixture's own count, not the caller's i: a
	// harness that restarts i at zero must not revisit a family the
	// destination still holds.
	n := 0
	return &Op{Run: func(int) error {
		probe, now := probes[n%families], core.Tick(n+2)
		probe.ID = core.RequestID(100 + n)
		n++
		if fr := store.Fetch(dst, probe, now); fr.Tokens != prefix || fr.Fetched != 1 {
			return fmt.Errorf("bench: fetch moved %d tokens in %d batches, want %d in 1", fr.Tokens, fr.Fetched, prefix)
		}
		if err := mgrs[dst].Reserve(probe, len(probe.Tokens), now); err != nil {
			return err
		}
		if got := mgrs[dst].CachedPrefix(probe); got != prefix {
			return fmt.Errorf("bench: claim restored %d tokens, want %d", got, prefix)
		}
		mgrs[dst].Release(probe, false)
		return nil
	}}, nil
}

// textSpec is the shared one-group full-attention model.
func textSpec(name string) *model.Spec {
	return &model.Spec{
		Name: name, Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeText},
		},
	}
}

// SimResult anchors the micro numbers to an end-to-end run.
type SimResult struct {
	ReqPerSec    float64
	TokensPerSec float64
	Wall         time.Duration
}

// SimThroughput runs a compact single-replica serving scenario (96
// shared-prefix requests, Gemma-2 2B geometry, default Jenga manager)
// and returns its simulated throughput plus the wall time the
// simulation itself took — the absolute end-to-end anchor committed
// next to the per-op numbers.
func SimThroughput() (SimResult, error) {
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		return SimResult{}, err
	}
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 2 << 30,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return SimResult{}, err
	}
	eng, err := engine.New(engine.Config{Spec: spec, Manager: mgr})
	if err != nil {
		return SimResult{}, err
	}
	gen := workload.NewGen(42)
	reqs := gen.PrefixGroups(8, 12, 1024, 128)
	gen.PoissonArrivals(reqs, 200)
	start := time.Now()
	res, err := eng.Run(reqs)
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		ReqPerSec:    res.ReqPerSec,
		TokensPerSec: res.TokensPerSec,
		Wall:         time.Since(start),
	}, nil
}
