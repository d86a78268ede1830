package main

import (
	"fmt"
	"runtime"
	"time"

	"jenga/internal/baseline"
	"jenga/internal/chaos"
	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// workloadDef is one benchmark workload. Names are fixed: later
// issues cite them, and BENCHMARK.json lists them with the same "why".
type workloadDef struct {
	name string
	why  string
	// n is the request count of one pass (the builders round it to a
	// whole number of groups where the generator needs that).
	n int
	// slo is the TTFT limit sim_slo_attainment is measured against.
	slo time.Duration
	// singleEngine marks workloads that drive one engine.Run (the
	// engine layer's self time and the paged baseline exist only there).
	singleEngine bool
	build        func(w *workloadDef, seed int64, n int, o buildOpts) (*instance, error)
}

// buildOpts selects how an instance is built around the same inputs.
type buildOpts struct {
	// tr, when set, wraps every layer interface in timing decorators.
	tr *tracer
	// serial drives streamed serving on one shard.
	serial bool
	// paged swaps the Jenga manager for the PagedAttention baseline,
	// and saturate makes every request arrive at t=0 so that tokens/s
	// measures capacity, not offered load (single-engine workloads; the
	// baseline comparison sets both sides to saturate).
	paged    bool
	saturate bool
}

// instance is one freshly built system plus its generated inputs.
type instance struct {
	// submitted is the number of requests one pass drives.
	submitted int
	// genS is the host time spent materialising the request slice and
	// promptTokens its prompt volume (both 0 for the streamed workload,
	// whose source decorator counts instead).
	genS         float64
	promptTokens int
	// managers are the bare (unwrapped) replica managers, for the
	// drain-time conservation check and allocator counters.
	managers []core.Manager
	run      func() (*simStats, error)
}

// workloads is the fixed workload table. The request counts were sized
// on a 2-core box so that one pass takes about two seconds.
var workloads = []*workloadDef{
	{
		name:  "fleet_stream",
		why:   "cluster.ServeStream, 16 replicas, prefix affinity, Poisson 4000 req/s under capacity: core read path (claim, lookup), streamed source, sharding, histograms, heap growth with N",
		n:     64_000,
		slo:   5 * time.Millisecond,
		build: buildFleetStream,
	},
	{
		name:  "online_overload",
		why:   "cluster.ServeOnline, 4 x gemma2-2b at 1.5x capacity with host tier, swap preemption, kv+slo admission, fleet store, migration, one crash: core tier path; the only open loop over capacity",
		n:     8_000,
		slo:   2 * time.Second,
		build: buildOnlineOverload,
	},
	{
		name:         "deep_queue_batch",
		why:          "one engine.Run, gemma2-9b, long shared articles all at t=0: offline tokens/s. Core is 77% of host time; the View fill over ~650 waiting makes engine self time per step 40x hetero_churn's",
		n:            1_600,
		slo:          300 * time.Second,
		singleEngine: true,
		build:        buildDeepQueueBatch,
	},
	{
		name:         "hetero_churn",
		why:          "one engine.Run, llava-ov (vision + text page sizes) at 4 GiB, unshared image and chat prompts at 0.8x capacity: cache always full, every admission allocates and evicts; core write path",
		n:            6_000,
		slo:          2 * time.Second,
		singleEngine: true,
		build:        buildHeteroChurn,
	},
}

// describe is the workload's "why" as BENCHMARK.json records it, with
// the request count of a pass.
func (w *workloadDef) describe() string { return fmt.Sprintf("N=%d. %s", w.n, w.why) }

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// streamShards is the plain-pass shard count of fleet_stream. Prefix
// affinity is load-oblivious, so sim_* is identical at any count.
func streamShards() int { return min(2, runtime.NumCPU()) }

// jengaManager is the cluster's default manager: prefix cache and
// request-aware placement on, optional host tier.
func jengaManager(spec *model.Spec, capacity, hostTier int64) (core.Manager, error) {
	return core.New(core.Config{
		Spec: spec, CapacityBytes: capacity,
		EnablePrefixCache: true, RequestAware: true,
		HostTierBytes: hostTier,
	})
}

// clusterParts fills the layer hooks of a cluster config: managers are
// built here (so the instance keeps the bare ones), and under a tracer
// manager, scheduler, router and admission policy are all wrapped.
func clusterParts(inst *instance, cfg *cluster.Config, o buildOpts, capacity, hostTier int64, policy cluster.RouterPolicy) error {
	inst.managers = make([]core.Manager, cfg.Replicas)
	if o.tr != nil {
		o.tr.size(cfg.Replicas)
	}
	cfg.NewManager = func(i int) (core.Manager, error) {
		m, err := jengaManager(cfg.Spec, capacity, hostTier)
		if err != nil {
			return nil, err
		}
		inst.managers[i] = m
		if o.tr == nil {
			return m, nil
		}
		return wrapManager(m, o.tr.core[i])
	}
	if o.tr == nil {
		cfg.Policy = policy
		return nil
	}
	router, err := cluster.NewRouter(policy, cfg.Replicas, cfg.AffinityPrefixTokens, cfg.VNodes)
	if err != nil {
		return err
	}
	o.tr.router = newTracedRouter(router)
	cfg.Router = o.tr.router
	base := cfg.Scheduler
	if base == nil {
		base = sched.NewFCFS()
	}
	cfg.Scheduler = nil
	cfg.NewScheduler = func(i int) sched.Scheduler {
		return &tracedSched{inner: base, c: o.tr.sched[i]}
	}
	if cfg.Admission != nil {
		o.tr.admission = &tracedAdmission{inner: cfg.Admission}
		cfg.Admission = o.tr.admission
	}
	cfg.EventSink = o.tr.spans.sink
	return nil
}

// textSpec is internal/bench's shared two-layer full-attention model
// (unexported there).
func textSpec(name string) *model.Spec {
	return &model.Spec{
		Name: name, Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeText},
		},
	}
}

// buildFleetStream is the bench.DefaultScaleOptions shape.
func buildFleetStream(w *workloadDef, seed int64, n int, o buildOpts) (*instance, error) {
	const replicas, groups, prefixLen, suffixLen, rate = 16, 64, 512, 48, 4000
	perGroup := (n + groups - 1) / groups
	inst := &instance{submitted: perGroup * groups}
	cfg := cluster.Config{Spec: textSpec("bench-scale"), Replicas: replicas, SLOTTFT: w.slo}
	if err := clusterParts(inst, &cfg, o, 64<<20, 0, cluster.PrefixAffinity); err != nil {
		return nil, err
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	shards := streamShards()
	if o.serial {
		shards = 1
	}
	inst.run = func() (*simStats, error) {
		// One Gen per pipeline stage (see workload.Source).
		var src workload.Source = workload.NewGen(seed).PrefixGroupsSource(groups, perGroup, prefixLen, suffixLen)
		src = workload.PoissonSource(src, workload.NewGen(seed+1), rate)
		if o.tr != nil {
			o.tr.source = &tracedSource{inner: src}
			src = o.tr.source
		}
		res, err := c.ServeStream(src, cluster.StreamConfig{Shards: shards})
		if err != nil {
			return nil, err
		}
		return clusterStats(res, inst.submitted), nil
	}
	return inst, nil
}

// buildOnlineOverload is the serial "everything on" path.
func buildOnlineOverload(w *workloadDef, seed int64, n int, o buildOpts) (*instance, error) {
	const replicas, groups, prefixLen, suffixLen, phases, rate = 4, 15, 1024, 128, 4, 70
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		return nil, err
	}
	perGroup := max(n/groups, 1)
	t0 := now()
	gen := workload.NewGen(seed)
	reqs := gen.ChurnGroups(groups, perGroup, prefixLen, suffixLen, phases)
	gen.PoissonArrivals(reqs, rate)
	// Admission control pins latency under this overload in a narrow
	// band: TTFT p50/p90/p99 is 1.90/2.12/2.4 s, E2E p50/p90 2.07/2.3 s.
	// The 2.2 s deadline and the 2 s TTFT limit both cut through that
	// band on purpose: sim_goodput_per_s (E2E, 77% of the finishes) and
	// sim_slo_attainment (TTFT, 72% of them) then move when a scheduler
	// or admission change shifts latency inside the band, which
	// completed_frac cannot see. The price is seed-to-seed spread (up to
	// 7% and 9% over ten seeds), paid for in those two metrics' bounds.
	// The deadline is not BENCH_serving.json's 2 s: that sits at the
	// steepest point of the E2E distribution (p36), where ten seeds
	// spread by up to 18%. Its value changes no simulated behaviour here
	// (admission's 250 ms target binds first; equal budgets rank by
	// arrival), only which finishes count as goodput.
	workload.SetDeadlines(reqs, 2200*time.Millisecond)
	inst := sliceInstance(reqs, t0)

	// One seeded crash mid-burst and a restart, with recovery on.
	first, last := workload.Span(reqs)
	span := last - first
	plan := chaos.NewPlan(seed).Crash(replicas-1, first+span*2/5).Restart(replicas-1, first+span*3/4)
	// The admission target is the serving system's own (250 ms, as in
	// BENCH_serving.json); w.slo is the limit attainment is measured
	// against, since under 1.5x load almost nothing meets 250 ms.
	adm, err := engine.ParseAdmission("kv+slo", 250*time.Millisecond)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Spec: spec, Replicas: replicas, SLOTTFT: w.slo,
		PreemptMode: engine.PreemptSwap,
		Scheduler:   sched.NewPriority(),
		Admission:   adm,
		Fleet:       cluster.FleetPolicy{Store: true, Migrate: true, ImbalanceThreshold: 1.5},
		Chaos:       cluster.ChaosPolicy{Plan: plan, Recover: true},
	}
	if err := clusterParts(inst, &cfg, o, 1<<28, 2<<30, cluster.LeastLoaded); err != nil {
		return nil, err
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	inst.run = func() (*simStats, error) {
		res, err := c.ServeOnline(reqs)
		if err != nil {
			return nil, err
		}
		return clusterStats(res, inst.submitted), nil
	}
	return inst, nil
}

// sliceInstance starts an instance around a materialised request
// slice whose generation began at t0.
func sliceInstance(reqs []workload.Request, t0 time.Duration) *instance {
	inst := &instance{submitted: len(reqs), genS: (now() - t0).Seconds()}
	for i := range reqs {
		inst.promptTokens += len(reqs[i].Prompt)
	}
	return inst
}

// engineInstance builds the single-engine workloads' system around an
// already generated request slice.
func engineInstance(w *workloadDef, inst *instance, spec *model.Spec, capacity int64, reqs []workload.Request, o buildOpts, ecfg engine.Config) (*instance, error) {
	var mgr core.Manager
	var err error
	if o.paged {
		mgr, err = baseline.NewPaged(baseline.Config{
			Spec: spec, CapacityBytes: capacity, EnablePrefixCache: true, MaxSeqs: ecfg.MaxRunning,
		})
	} else {
		mgr, err = jengaManager(spec, capacity, 0)
	}
	if err != nil {
		return nil, err
	}
	inst.managers = []core.Manager{mgr}
	ecfg.Spec, ecfg.Manager = spec, mgr
	if o.tr != nil {
		o.tr.size(1)
		if ecfg.Manager, err = wrapManager(mgr, o.tr.core[0]); err != nil {
			return nil, err
		}
		ecfg.Scheduler = &tracedSched{inner: sched.NewFCFS(), c: o.tr.sched[0]}
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		eng.SetEventSink(func(ev engine.Event) { o.tr.spans.sink(0, ev) })
	}
	inst.run = func() (*simStats, error) {
		res, err := eng.Run(reqs)
		if err != nil {
			return nil, err
		}
		return engineStats(res, inst.submitted, w.slo), nil
	}
	return inst, nil
}

// corpusSeed fixes deep_queue_batch's article lengths.
const corpusSeed = 20250926

// buildDeepQueueBatch is the offline batch: everything waits at t=0.
func buildDeepQueueBatch(w *workloadDef, seed int64, n int, o buildOpts) (*instance, error) {
	spec, err := model.ByName("gemma2-9b")
	if err != nil {
		return nil, err
	}
	dev := gpu.H100()
	capacity, err := gpu.KVBudget(spec, dev, 0)
	if err != nil {
		return nil, err
	}
	t0 := now()
	// The article pool is a fixed corpus (its lengths are drawn from a
	// constant seed); -seed draws the question stream over it. With only
	// 20 articles, a per-seed corpus would move the total prompt volume
	// by several percent and every host metric with it.
	arts := workload.NewGen(corpusSeed).Articles(20, 8192)
	reqs := workload.NewGen(seed).ArxivQA(arts, n, 64)
	workload.AllAtOnce(reqs)
	inst := sliceInstance(reqs, t0)
	return engineInstance(w, inst, spec, capacity, reqs, o, engine.Config{
		Device: dev, MaxBatchTokens: 2048, MaxRunning: 256,
	})
}

// buildHeteroChurn is the paper's heterogeneity case: image-heavy and
// chat prompts interleaved, nothing shared, cache always full.
func buildHeteroChurn(w *workloadDef, seed int64, n int, o buildOpts) (*instance, error) {
	const rate = 1.6 // about 0.8x the measured serving capacity
	spec, err := model.ByName("llava-ov")
	if err != nil {
		return nil, err
	}
	t0 := now()
	gen := workload.NewGen(seed) // one Gen: request IDs stay unique
	half := max(n/2, 1)
	images := gen.MMMUPro(half, 576)
	chats := gen.ShareGPT(half)
	reqs := make([]workload.Request, 0, 2*half)
	for i := 0; i < half; i++ {
		reqs = append(reqs, images[i], chats[i])
	}
	if !o.saturate {
		gen.PoissonArrivals(reqs, rate)
	}
	inst := sliceInstance(reqs, t0)
	return engineInstance(w, inst, spec, 4<<30, reqs, o, engine.Config{
		Device: gpu.H100(), MaxBatchTokens: 2048, MaxRunning: 256,
		Vision: engine.VisionFreeOnDemand,
	})
}

// checkDrained verifies the allocator's conservation law on every
// manager after a pass: nothing is still in use, and every byte is
// accounted as used, cached, wasted or free.
func checkDrained(managers []core.Manager) error {
	for i, m := range managers {
		u := m.UsageTotals()
		if u.Used != 0 {
			return fmt.Errorf("manager %d: %d bytes still in use after drain", i, u.Used)
		}
		if sum := u.Used + u.Cached + u.Wasted + u.Free; sum != m.Capacity() {
			return fmt.Errorf("manager %d: used+cached+wasted+free = %d, capacity %d", i, sum, m.Capacity())
		}
	}
	return nil
}
