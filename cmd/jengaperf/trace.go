package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
)

// tracer is the state of one traced pass: one counter block per
// replica for the manager and the scheduler, one router, admission and
// source decorator, and the sampled request spans.
type tracer struct {
	core      []*coreCounters
	sched     []*schedCounters
	router    *tracedRouter
	admission *tracedAdmission
	source    *tracedSource
	spans     *spanRecorder
}

func newTracer() *tracer { return &tracer{spans: &spanRecorder{}} }

// size allocates the per-replica counter blocks.
func (t *tracer) size(replicas int) {
	t.core = make([]*coreCounters, replicas)
	t.sched = make([]*schedCounters, replicas)
	for i := range t.core {
		t.core[i] = &coreCounters{}
		t.sched[i] = &schedCounters{}
	}
	t.spans.perReplica = make([][]spanEvent, replicas)
}

// spanEvent is one lifecycle event of a sampled request.
type spanEvent struct {
	id      int64
	typ     engine.EventType
	replica int
	sim     time.Duration
	host    time.Duration
}

// spanRecorder keeps the lifecycle events of a deterministic 1-in-256
// sample of request IDs in memory, one buffer per replica: a replica's
// events come from one goroutine at a time, so no lock is needed.
type spanRecorder struct {
	perReplica [][]spanEvent
}

// sampled picks 1 in 256 request IDs by a multiplicative hash
// (generator IDs are not dense, so a plain modulus would be biased).
func sampled(id int64) bool { return uint64(id)*0x9E3779B97F4A7C15>>56 == 0 }

func (s *spanRecorder) sink(replica int, ev engine.Event) {
	if ev.Type == engine.EventToken || !sampled(ev.ID) {
		return
	}
	s.perReplica[replica] = append(s.perReplica[replica], spanEvent{
		id: ev.ID, typ: ev.Type, replica: replica, sim: ev.Clock, host: now(),
	})
}

// spanLine is one JSONL span: name, start, end, the span that caused
// it, and the request identifier all spans of a request share.
type spanLine struct {
	Workload  string `json:"workload"`
	Request   int64  `json:"request"`
	Span      string `json:"span"`
	Parent    string `json:"parent,omitempty"`
	Replica   int    `json:"replica"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	Outcome   string `json:"outcome,omitempty"`
}

// lines assembles request spans from the recorded events: "request"
// (queued → terminal) with children "prefill" (queued → first token)
// and "decode" (first token → terminal). A request that migrated or
// was re-dispatched after a crash has events on several replicas; the
// span is attributed to the replica of its terminal event.
func (s *spanRecorder) lines(workload string) []spanLine {
	var all []spanEvent
	for _, evs := range s.perReplica {
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].id != all[j].id {
			return all[i].id < all[j].id
		}
		return all[i].host < all[j].host
	})
	var out []spanLine
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].id == all[i].id {
			j++
		}
		evs := all[i:j]
		i = j
		start, end := evs[0], evs[len(evs)-1]
		if !end.typ.Terminal() {
			continue
		}
		mk := func(name, parent string, a, b spanEvent) spanLine {
			return spanLine{
				Workload: workload, Request: a.id, Span: name, Parent: parent, Replica: b.replica,
				SimStart: int64(a.sim), SimEnd: int64(b.sim),
				HostStart: int64(a.host), HostEnd: int64(b.host),
			}
		}
		req := mk("request", "", start, end)
		req.Outcome = end.typ.String()
		out = append(out, req)
		for _, ev := range evs {
			if ev.typ == engine.EventFirstToken {
				out = append(out, mk("prefill", "request", start, ev), mk("decode", "request", ev, end))
				break
			}
		}
	}
	return out
}

// writeSpans writes the spans as JSONL under dir and returns the count.
func writeSpans(dir, workload string, lines []spanLine) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range lines {
		if err := enc.Encode(&lines[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(lines), f.Close()
}

// layerMetrics turns one traced pass into the per-layer metric map.
// wallS is the traced pass's wall time; every busy time below was
// measured inside it, on a serial drive, so self times subtract.
func (t *tracer) layerMetrics(w *workloadDef, inst *instance, sim *simStats, wallS float64) map[string]float64 {
	m := make(map[string]float64)
	secs := func(d time.Duration) float64 { return d.Seconds() }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// workload
	m["workload.gen_s"] = inst.genS
	m["workload.next_calls"] = 0
	m["workload.prompt_tokens"] = float64(inst.promptTokens)
	var srcBusy time.Duration
	if t.source != nil {
		m["workload.next_calls"] = float64(t.source.next.calls)
		m["workload.prompt_tokens"] = float64(t.source.promptTokens)
		srcBusy = t.source.next.busy
	}
	m["workload.next_busy_s"] = secs(srcBusy)

	// core: sum the per-replica counters.
	var ops [numCoreOps]opStat
	var coreBusy time.Duration
	var noSpace, lkTok, lkHit, samples int64
	var used, cached, waste, wastePeak float64
	var stats core.Stats
	for _, c := range t.core {
		for i := range ops {
			ops[i].calls += c.ops[i].calls
			ops[i].busy += c.ops[i].busy
			coreBusy += c.ops[i].busy
		}
		noSpace += c.reserveNoSpace
		lkTok += c.lookupTokens
		lkHit += c.lookupHitTokens
		samples += c.usageSamples
		used += c.usedSum
		cached += c.cachedSum
		waste += c.wasteSum
		wastePeak = max(wastePeak, c.wastePeak)
		addStats(&stats, c.totalStats())
	}
	for i, name := range coreOpNames {
		m["core."+name+"_calls"] = float64(ops[i].calls)
		m["core."+name+"_busy_s"] = secs(ops[i].busy)
	}
	m["core.busy_s"] = secs(coreBusy)
	m["core.reserve_nospace_frac"] = frac(float64(noSpace), float64(ops[opReserve].calls))
	m["core.lookup_hit_token_frac"] = frac(float64(lkHit), float64(lkTok))
	m["core.page_allocs"] = float64(stats.Allocs)
	m["core.small_evictions"] = float64(stats.SmallEvictions)
	m["core.large_evictions"] = float64(stats.LargeEvictions)
	m["core.swap_outs"] = float64(stats.SwapOuts)
	m["core.swap_ins"] = float64(stats.SwapIns)
	m["core.restored_tokens"] = float64(stats.RestoredTokens)
	m["core.cow_copies"] = float64(stats.CowCopies)
	m["core.used_frac_mean"] = frac(used, float64(samples))
	m["core.cached_frac_mean"] = frac(cached, float64(samples))
	m["core.waste_frac_mean"] = frac(waste, float64(samples))
	m["core.waste_frac_peak"] = wastePeak
	var hostUsed float64
	for _, mgr := range inst.managers {
		if u := mgr.UsageTotals(); u.HostCapacity > 0 {
			hostUsed += float64(u.HostUsed) / float64(u.HostCapacity) / float64(len(inst.managers))
		}
	}
	m["core.host_used_frac_end"] = hostUsed

	// sched
	var sc schedCounters
	var schedBusy time.Duration
	for _, c := range t.sched {
		sc.pick.calls += c.pick.calls
		sc.victim.calls += c.victim.calls
		sc.budget.calls += c.budget.calls
		sc.rank.calls += c.rank.calls
		schedBusy += c.pick.busy + c.victim.busy + c.budget.busy + c.rank.busy
		sc.viewCalls += c.viewCalls
		sc.viewWaitingSum += c.viewWaitingSum
		sc.viewWaitingMax = max(sc.viewWaitingMax, c.viewWaitingMax)
		sc.victimFound += c.victimFound
	}
	m["sched.pick_calls"] = float64(sc.pick.calls)
	m["sched.victim_calls"] = float64(sc.victim.calls)
	m["sched.budget_calls"] = float64(sc.budget.calls)
	m["sched.rank_calls"] = float64(sc.rank.calls)
	m["sched.busy_s"] = secs(schedBusy)
	m["sched.view_waiting_mean"] = frac(float64(sc.viewWaitingSum), float64(sc.viewCalls))
	m["sched.view_waiting_max"] = float64(sc.viewWaitingMax)
	m["sched.victim_found_frac"] = frac(float64(sc.victimFound), float64(sc.victim.calls))

	// engine: admission is the engine's arrival-time hook.
	var admitBusy time.Duration
	if a := t.admission; a != nil {
		admitBusy = time.Duration(a.busyNs.Load())
		m["engine.admit_calls"] = float64(a.calls.Load())
		m["engine.admit_shed_frac"] = frac(float64(a.shed.Load()), float64(a.calls.Load()))
	} else {
		m["engine.admit_calls"] = 0
		m["engine.admit_shed_frac"] = 0
	}
	m["engine.admit_busy_s"] = secs(admitBusy)
	m["engine.steps"] = float64(sim.Steps)
	m["engine.mean_decode_batch"] = sim.MeanDecodeBatch
	m["engine.preemptions"] = float64(sim.Preemptions)
	m["engine.recomputed_tokens"] = float64(sim.RecomputedTokens)
	m["engine.computed_prompt_tokens"] = float64(sim.ComputedPromptTokens)
	m["engine.generated_tokens"] = float64(sim.GeneratedTokens)
	m["engine.encoder_runs"] = float64(sim.EncoderRuns)

	// Whatever the drive spent outside every decorator. On a single
	// engine that is the engine's own stepping; on a cluster it is the
	// serve loop *plus* engine stepping (from outside the two cannot
	// be separated — in-program spans are a later issue).
	var routeBusy time.Duration
	if t.router != nil {
		routeBusy = t.router.route.busy
		m["cluster.route_calls"] = float64(t.router.route.calls)
		m["cluster.route_affinity_frac"] = frac(float64(t.router.sticky), float64(t.router.repeats))
	} else {
		m["cluster.route_calls"] = 0
		m["cluster.route_affinity_frac"] = 0
	}
	m["cluster.route_busy_s"] = secs(routeBusy)
	self := wallS - secs(coreBusy+schedBusy+admitBusy+routeBusy+srcBusy)
	m["engine.run_self_s"], m["engine.self_ns_per_step"] = 0, 0
	m["cluster.drive_self_s"], m["cluster.drive_self_us_per_req"] = 0, 0
	if w.singleEngine {
		m["engine.run_self_s"] = self
		m["engine.self_ns_per_step"] = frac(self*1e9, float64(sim.Steps))
	} else {
		m["cluster.drive_self_s"] = self
		m["cluster.drive_self_us_per_req"] = frac(self*1e6, float64(sim.Submitted))
	}
	m["cluster.imbalance"] = sim.Imbalance
	m["cluster.migrations"] = float64(sim.Migrations)
	m["cluster.redispatched"] = float64(sim.Redispatched)
	m["cluster.lost_requests"] = float64(sim.Lost)

	// fleet / chaos
	m["fleet.peer_hits"] = float64(sim.PeerHits)
	m["fleet.peer_hit_rate"] = sim.PeerHitRate
	m["fleet.fetch_retries"] = float64(sim.FetchRetries)
	m["fleet.fetch_failures"] = float64(sim.FetchFailures)
	m["chaos.crashes"] = float64(sim.Crashes)
	m["chaos.restarts"] = float64(sim.Restarts)
	return m
}

// layerShares prints the busy share of each layer in a traced pass —
// the shape the README records per workload.
func layerShares(m map[string]float64, wallS float64) string {
	pct := func(k string) float64 { return 100 * m[k] / wallS }
	return fmt.Sprintf("core %.0f%%  sched %.0f%%  admission %.0f%%  router %.0f%%  source %.0f%%  engine/drive self %.0f%%",
		pct("core.busy_s"), pct("sched.busy_s"), pct("engine.admit_busy_s"),
		pct("cluster.route_busy_s"), pct("workload.next_busy_s"),
		pct("engine.run_self_s")+pct("cluster.drive_self_s"))
}
