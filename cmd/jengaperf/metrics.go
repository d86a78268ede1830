package main

// metricDef describes one reported metric. The tables below are the
// single source of BENCHMARK.json's end_to_end and per_layer lists
// (TestBenchmarkJSONMatchesTables keeps the file in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which the metric
	// may get worse before it counts as a regression (end-to-end only).
	bound float64
	// sim marks a simulated statistic of the modelled serving system
	// (bit-exact for a seed); the rest are host metrics of the
	// simulator itself (noisy).
	sim bool
}

// endToEnd is every gated metric; every workload reports all of them.
// Every bound is at least three times the widest spread (interquartile
// range over median, ten seeds, 2-core sandbox) seen on any workload:
// for host metrics that is the sandbox's noise, for sim_* the spread
// between seeds (the driver varies the seed) — at a fixed seed sim_*
// repeats exactly and any change at all is a behaviour change.
//
// A pass's wall and CPU time are not here. The shared host the
// benchmark runs on has slow phases that last minutes and cost the
// memory-bound workloads 30%; no statistic over one run removes them,
// and identical code spread past the largest bound a metric may have
// (25%). A gate that noisy rejects changes at random, so the two times
// are printed by every run and reported as host.serial_wall_s and
// host.serial_cpu_s among the per-layer metrics, which have no bound;
// a change that claims a host-time gain shows it with paired runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"peak_heap_mb", "MiB", "lower", 0.15, false},
	{"allocs_per_req", "count", "lower", 0.15, false},
	{"sim_tokens_per_s", "tok/s", "higher", 0.08, true},
	{"sim_goodput_per_s", "req/s", "higher", 0.22, true},
	{"sim_ttft_p50_ms", simMS, "lower", 0.15, true},
	{"sim_ttft_p99_ms", simMS, "lower", 0.15, true},
	{"sim_e2e_p99_ms", simMS, "lower", 0.10, true},
	{"sim_slo_attainment", "fraction", "higher", 0.25, true},
	{"sim_miss_rate", "fraction", "lower", 0.12, true},
	{"sim_kv_util_mean", "fraction", "higher", 0.02, true},
	{"completed_frac", "fraction", "higher", 0.07, true},
}

// ungatedTimes are a pass's wall and CPU time: medians over the passes
// of a plain run, printed with the end-to-end metrics but not part of
// the result line (see endToEnd).
var ungatedTimes = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
}

// simMS is the unit of simulated latencies: milliseconds of simulated
// time, which repeat exactly for a seed — not host milliseconds.
const simMS = "sim_ms"

// endToEndValues maps one plain run onto the end-to-end metric names.
func endToEndValues(setupS []float64, passes []hostSample, sim *simStats) map[string]float64 {
	var wall, cpu, mallocs, peak []float64
	for _, p := range passes {
		wall = append(wall, p.wallS)
		cpu = append(cpu, p.cpuS)
		mallocs = append(mallocs, p.mallocs)
		peak = append(peak, p.peakHeapMB)
	}
	return map[string]float64{
		"setup_s": median(setupS),
		// Printed, not gated: see endToEnd.
		"wall_s":             median(wall),
		"cpu_s":              median(cpu),
		"peak_heap_mb":       median(peak),
		"allocs_per_req":     median(mallocs) / float64(sim.Submitted),
		"sim_tokens_per_s":   sim.TokensPerS,
		"sim_goodput_per_s":  sim.GoodputPerS,
		"sim_ttft_p50_ms":    sim.TTFTp50ms,
		"sim_ttft_p99_ms":    sim.TTFTp99ms,
		"sim_e2e_p99_ms":     sim.E2Ep99ms,
		"sim_slo_attainment": sim.SLOAttainment,
		"sim_miss_rate":      1 - sim.HitRate,
		"sim_kv_util_mean":   sim.KVUtilMean,
		"completed_frac":     float64(sim.Finished) / float64(sim.Submitted),
	}
}

// perLayer lists the traced run's metrics, layer by layer. They have
// no bound: they explain an end-to-end move, they do not gate.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	add("lower", "count", "workload.next_calls", "workload.prompt_tokens")
	add("lower", "s", "workload.next_busy_s", "workload.gen_s")

	add("lower", "count", "cluster.route_calls")
	add("lower", "s", "cluster.route_busy_s", "cluster.drive_self_s")
	add("higher", "fraction", "cluster.route_affinity_frac")
	add("lower", "ratio", "cluster.imbalance")
	add("lower", "us", "cluster.drive_self_us_per_req")
	add("lower", "count", "cluster.migrations", "cluster.redispatched", "cluster.lost_requests")
	add("lower", "ns", "cluster.online_arrival_ns")
	add("lower", "B", "cluster.online_arrival_bytes")

	add("higher", "count", "fleet.peer_hits")
	add("higher", "fraction", "fleet.peer_hit_rate")
	add("lower", "count", "fleet.fetch_retries", "fleet.fetch_failures", "chaos.crashes", "chaos.restarts")

	add("lower", "count", "engine.steps")
	add("lower", "s", "engine.run_self_s")
	add("lower", "ns", "engine.self_ns_per_step")
	add("higher", "count", "engine.mean_decode_batch")
	add("lower", "count", "engine.preemptions", "engine.recomputed_tokens", "engine.computed_prompt_tokens")
	add("higher", "count", "engine.generated_tokens")
	add("lower", "count", "engine.encoder_runs", "engine.admit_calls")
	add("lower", "s", "engine.admit_busy_s")
	add("lower", "fraction", "engine.admit_shed_frac")
	add("lower", "ns", "engine.run_step_ns")

	add("lower", "count", "sched.pick_calls", "sched.victim_calls", "sched.budget_calls", "sched.rank_calls")
	add("lower", "s", "sched.busy_s")
	add("lower", "count", "sched.view_waiting_mean", "sched.view_waiting_max")
	add("higher", "fraction", "sched.victim_found_frac")

	for _, op := range coreOpNames {
		add("lower", "count", "core."+op+"_calls")
		add("lower", "s", "core."+op+"_busy_s")
	}
	add("lower", "s", "core.busy_s")
	add("lower", "fraction", "core.reserve_nospace_frac")
	add("higher", "fraction", "core.lookup_hit_token_frac")
	add("lower", "count", "core.page_allocs", "core.small_evictions", "core.large_evictions",
		"core.swap_outs", "core.swap_ins", "core.cow_copies")
	add("higher", "count", "core.restored_tokens")
	add("higher", "fraction", "core.used_frac_mean", "core.cached_frac_mean")
	add("lower", "fraction", "core.waste_frac_mean", "core.waste_frac_peak", "core.host_used_frac_end")
	add("lower", "ns", "core.alloc_small_8k_ns", "core.claim_release_ns", "core.lookup_warm_ns", "core.commit_decode_ns")
	add("lower", "count", "core.alloc_small_8k_allocs", "core.claim_release_allocs")

	add("higher", "tok/s", "baseline.paged_sim_tokens_per_s")
	add("higher", "ratio", "core.sim_speedup_vs_paged")

	add("lower", "ns", "metrics.hist_observe_ns", "metrics.hist_merge_ns")

	add("lower", "s", "host.serial_wall_s", "host.serial_cpu_s")

	add("lower", "fraction", "trace.overhead_frac")
	add("higher", "count", "trace.spans_written")
	return out
}()
