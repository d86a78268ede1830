// Package engine simulates a continuous-batching LLM serving engine in
// the style of vLLM: policy-ordered admission, chunked prefill under a
// token budget, one-token decode steps for running sequences, and
// recompute-style preemption when memory runs out. A model.Spec that
// carries a Draft is served by speculative decoding (speculative.go):
// the same loop, with decode steps that commit a burst of accepted
// tokens and cost the draft's passes too. The engine is
// manager-agnostic — Jenga and the PagedAttention baselines plug in
// through core.Manager, so experiments vary only memory management,
// exactly as the paper's evaluation does. It is likewise
// policy-agnostic about scheduling: admission order, preemption victim
// selection and the prefill/decode budget split all delegate to a
// pluggable sched.Scheduler (default FCFS, the historical behavior);
// the engine itself encodes no priority or arrival-order comparison.
//
// Time is simulated: each step's duration comes from the gpu.CostModel,
// so results are deterministic and hardware-independent.
//
// The engine is an event-driven streaming core (stream.go): requests
// enter through Submit, progress is pushed out as Events (first token,
// per-token, preemption, terminal states), Cancel releases a request's
// KV mid-flight, and a pluggable AdmissionPolicy sheds work at arrival
// when memory or SLO headroom is gone. Engine.Run is the thin batch
// driver over that core — submit everything, step until drained — so
// offline experiments and online serving share one scheduler.
//
// An Engine is goroutine-confined: it owns its Manager and all run
// state, and nothing in it is safe for concurrent use. Concurrency
// lives one level up — internal/serve wraps one engine in a
// mutex-guarded online Server, and internal/cluster gives every
// replica its own Engine, Manager and Device.
package engine

import (
	"fmt"
	"time"

	"jenga/internal/core"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// VisionStrategy selects how vision embeddings are managed (§6.2).
type VisionStrategy int

const (
	// VisionNone: no embedding cache — the encoder re-runs for every
	// prefill chunk that still involves image tokens (vLLM baseline).
	VisionNone VisionStrategy = iota
	// VisionFreeOnDemand: encode once, cache embeddings, free them as
	// chunks consume them (§6.2a).
	VisionFreeOnDemand
	// VisionReuseKV: encode once; embeddings live in the KV pages
	// already allocated for those tokens, costing no extra memory
	// (§6.2b).
	VisionReuseKV
)

// PreemptMode selects what happens to a preemption victim's KV.
type PreemptMode int

const (
	// PreemptRecompute releases the victim's pages (cache-preserving)
	// and recomputes whatever the prefix cache no longer holds when
	// the victim is re-admitted — vLLM-style recompute preemption, the
	// historical behavior the golden tests pin.
	PreemptRecompute PreemptMode = iota
	// PreemptSwap moves the victim's pages to the manager's host
	// memory tier (core.TierManager.SwapOut): when pressure later
	// evicts them from the GPU, the bytes survive one tier down, and
	// re-admission restores them over PCIe instead of recomputing.
	// Managers without the TierManager capability (the PagedAttention
	// baselines) degrade to PreemptRecompute.
	PreemptSwap
)

// String names the mode for reports.
func (m PreemptMode) String() string {
	if m == PreemptSwap {
		return "swap"
	}
	return "recompute"
}

// Config configures an engine run.
type Config struct {
	// Spec is the true model architecture.
	Spec *model.Spec
	// Device is the simulated GPU.
	Device gpu.Device
	// Manager is the KV memory manager under test.
	Manager core.Manager
	// MaxBatchTokens is the per-step token budget (chunked prefill
	// chunk size). Default 2048.
	MaxBatchTokens int
	// MaxRunning caps concurrent sequences (max_num_seqs). Default 256.
	MaxRunning int
	// MaxPrefills caps concurrently prefilling sequences. Prefills
	// share the fixed token budget, so admitting more of them adds no
	// prefill throughput while their KV crowds out the prefix cache;
	// chunked-prefill schedulers keep this small. Default 2.
	MaxPrefills int
	// Vision selects the embedding-cache strategy for VLMs.
	Vision VisionStrategy
	// KernelEfficiency models slower kernels (GCD ablation); 0 → 1.0.
	KernelEfficiency float64
	// Admission, when set, decides at each request's arrival instant
	// whether it is queued or shed (see AdmissionPolicy). Nil admits
	// everything.
	Admission AdmissionPolicy
	// Scheduler is the scheduling policy: admission order, preemption
	// victim selection and the prefill/decode budget split all
	// delegate to it (see internal/sched). Nil means sched.NewFCFS(),
	// which is priority-blind pure arrival order — bit-identical to
	// the historical engine for the default all-zero priorities.
	// Workloads that set Request.Priority must configure
	// sched.NewPriority() (or another priority-aware policy) for the
	// field to take effect.
	Scheduler sched.Scheduler
	// PreemptMode selects recompute- or swap-based preemption
	// (default recompute, the golden-pinned historical behavior).
	PreemptMode PreemptMode
	// Faults, when set, is consulted before every executed step: the
	// returned factors scale the step's PCIe/peer-link DMA terms and
	// its total duration (fault injection's degraded-link windows and
	// slow-replica stragglers — see internal/chaos). Nil, the
	// default, leaves every step's cost untouched.
	Faults FaultInjector
	// SampleEvery switches the per-step timelines on: any value above 0
	// keeps Result.DecodeBatchTimeline (one entry per executed step)
	// and records a Result.MemTimeline sample every N steps. 0, the
	// default, keeps neither — an engine then holds no per-step slice.
	SampleEvery int
	// MaxSteps aborts runaway simulations. Default 2_000_000.
	MaxSteps int
}

// StepFault scales one executed step's cost: PCIe and Link in (0, 1]
// degrade the respective link bandwidths, Slow ≥ 1 stretches the
// whole step (the straggler). Zero fields mean "no fault".
type StepFault struct {
	PCIe, Link, Slow float64
}

// FaultInjector supplies the fault factors in effect at a simulated
// instant. Implementations must be deterministic functions of the
// clock — the engine consults them on every executed step.
type FaultInjector interface {
	StepFault(clock time.Duration) StepFault
}

// MemSample is one point of the Fig. 16 memory timeline.
type MemSample struct {
	Step  int
	Clock time.Duration
	Usage core.Usage
}

// kvUtilEvery is the step stride for KV-utilization sampling (cheap
// enough to stay on by default, coarse enough not to show in profiles).
const kvUtilEvery = 32

// Result aggregates one run's metrics.
type Result struct {
	// Totals is the part serve.Report and cluster.Result carry too:
	// duration, counts by terminal state, token sums, throughput, hit
	// and tier-hit rates, tier and peer transfer totals.
	Totals
	Steps int
	// MeanTTFT, MeanE2E, MeanTPOT are latency averages over finished
	// requests.
	MeanTTFT, MeanE2E, MeanTPOT time.Duration
	// MeanDecodeBatch is the average number of decoding sequences per
	// step that decoded anything (Fig. 15).
	MeanDecodeBatch float64
	// DecodeBatchTimeline is the decode batch size of every executed
	// step (Fig. 15) and MemTimeline the sampled memory usage
	// (Fig. 16); both are kept only under Config.SampleEvery > 0.
	DecodeBatchTimeline []int
	MemTimeline         []MemSample
	// PerRequest holds the finished requests' records in finish order —
	// what the default retire sink (Retain) keeps. Empty once
	// SetRetireSink has installed another sink.
	PerRequest []RequestMetrics
	// MeanKVUtil and PeakKVUtil are the mean and peak fraction of KV
	// capacity holding live or cached KV, sampled every kvUtilEvery
	// steps.
	MeanKVUtil, PeakKVUtil float64
	// SwapOutBytes/SwapInBytes are the D2H/H2D volumes behind
	// SwapOuts/SwapIns. HostTierUsed/HostTierCapacity snapshot the tier
	// at the end of the run.
	SwapOutBytes, SwapInBytes      int64
	HostTierUsed, HostTierCapacity int64
	// MigratedIn counts entries through MigrateIn, whatever brought the
	// request — a completed migration, a failed one rolling back to its
	// source, or a crash redispatch. MigratedOut counts MigrateOut
	// extractions. (How many migrations completed is the cluster's to
	// say: cluster.Result.Migrations.)
	MigratedIn, MigratedOut int
	// EncoderRuns counts vision-encoder invocations (Fig. 18).
	EncoderRuns int
}

// Latency rolls the retained records (PerRequest) up, exactly, against
// the TTFT target slo (0: against per-request deadlines).
func (r *Result) Latency(slo time.Duration) Latency {
	roll := NewRollup(slo, true)
	for i := range r.PerRequest {
		roll.Observe(&r.PerRequest[i])
	}
	return roll.Latency(r.Duration)
}

type phase int

const (
	phasePrefill phase = iota
	phaseDecode
)

// run is one request's runtime state. Runs are pooled (runpool.go):
// whoever takes one overwrites it whole, and nothing may keep a *run
// past the step in which its request left the engine.
type run struct {
	// req is the engine's own copy of the request header; req.Prompt
	// still points at the submitter's array, which is only ever read.
	req workload.Request
	seq core.Sequence
	// owned marks seq.Tokens as a private buffer from the engine's free
	// list; otherwise it borrows req.Prompt (or a Migrated record's
	// slice) and is read-only. See tokbuf.go.
	owned bool
	// promptShared marks req.Prompt as shared with another request (a
	// fork root and its branches): nobody may hand it back.
	promptShared bool
	ph           phase
	// computed is the number of tokens with committed KV.
	computed int
	// cachedHit is the prefix served from cache at (re)admission.
	cachedHit int
	// decodesDone counts completed decode steps (need OutputLen-1).
	decodesDone int
	// encoded marks that the vision encoder ran for the current
	// prefill pass (resets on preemption).
	encoded bool
	// pendingTarget is the commit target set during scheduling.
	pendingTarget int
	// scheduledStep is the step that last scheduled this run; a run
	// scheduled in the current step must not be preempted (its commit
	// is already in flight).
	scheduledStep int
	// ctxText and ctxImg count text and image tokens among the first
	// `computed` tokens, maintained incrementally as KV commits so the
	// per-decode KV-read cost never rescans the context.
	ctxText, ctxImg int
	// alive reports membership in Engine.running (an O(1) stand-in for
	// scanning the running list when a preemption may have removed the
	// run mid-step).
	alive bool
	// everComputed is the high-water mark of computed: prefill work
	// below it is recomputation (preemption waste), which the host
	// tier avoids by restoring instead.
	everComputed int
	// restoredTokens and restoredBytes accumulate the run's host-tier
	// restore share across (re)admissions.
	restoredTokens int
	restoredBytes  int64
	// forkDone marks that the run's Fanout expansion already fired
	// (set on forked children at creation so they never re-fork).
	forkDone bool
	// preemptions counts how often this request lost its KV (carried
	// across migration and crash redispatch, like firstToken).
	preemptions int
	firstToken  time.Duration
	started     bool
}

// advanceCtx folds tokens [from, to) into the run's committed text and
// image counts.
func (r *run) advanceCtx(from, to int) {
	for i := from; i < to && i < len(r.seq.Tokens); i++ {
		if r.seq.Tokens[i].Image() {
			r.ctxImg++
		} else {
			r.ctxText++
		}
	}
}

// resetCtx clears the committed-context counters (preemption and
// admission rollback set computed back to zero).
func (r *run) resetCtx() { r.ctxText, r.ctxImg = 0, 0 }

func (r *run) promptLen() int { return len(r.req.Prompt) }

// Engine executes one simulation run.
type Engine struct {
	cfg  Config
	cost gpu.CostModel
	// draftCost prices the draft model's passes; nil unless cfg.Spec is
	// a speculative pair.
	draftCost *gpu.CostModel
	clock     time.Duration
	step      int

	pending runQueue // not yet arrived (sorted by arrival)
	waiting runQueue // arrived, not running
	running []*run

	// onEvent is the streaming sink (nil: no emission).
	onEvent func(Event)
	// drainRate is the device's compute-bound token rate (tokens per
	// simulated second), the first-order term admission uses to
	// estimate queueing delay.
	drainRate float64

	// sink receives every request's record at its one exit (retire).
	// Never nil: New installs the default, which retains finished
	// records for Result.PerRequest.
	sink RetireSink
	tally

	// stepScratch and committers are per-step work lists reused across
	// steps so the steady-state step loop allocates nothing.
	stepScratch []*run
	committers  []*run

	// scheduler is the resolved scheduling policy (never nil) and
	// schedView the reusable read-only view it decides on; policyView
	// repopulates it before every delegated decision. admPreempt
	// caches whether the policy can preempt for blocked admissions,
	// so the step loop skips that phase entirely for policies (like
	// the default FCFS) that never do.
	scheduler  sched.Scheduler
	schedView  sched.View
	admPreempt bool

	// tier is the manager's host-tier capability (nil for managers
	// without one, e.g. the PagedAttention baselines); tierBase is
	// the counter snapshot taken at reset so Result reports per-run
	// deltas even on a warm manager.
	tier     core.TierManager
	tierBase core.TierStats

	// tokFree is the free list of private token buffers (tokbuf.go) and
	// runs the free list of runs (runpool.go); both survive Reset.
	tokFree tokenPool
	runs    runPool
	// promptSink, when set, is handed the prompt of every request that
	// retires here and shares it with nobody (SetPromptSink).
	promptSink func([]core.Token)

	// forker is the manager's copy-on-write forking capability (nil
	// for managers without one — fan-out then degrades to running the
	// root single-stream).
	forker core.Forker
}

// tally is everything a run accumulates between resets; reset clears
// it by assigning the zero value.
type tally struct {
	// res is the Result under construction. Counts, token sums, the
	// peak, and the retained timelines and records accumulate in their
	// final fields; result() copies it out and derives the rest
	// (duration, rates, means, tier deltas).
	res Result
	// Latency sums over finished requests, for Result's means.
	ttftSum, e2eSum, tpotSum time.Duration
	tpotN                    int
	decodeSteps, decodeSum   int64
	kvUtilSum                float64
	kvUtilN                  int
	// kvSampledStep is the last step sampleKVUtil ran for, so the
	// drain-time closing sample is never taken twice.
	kvSampledStep int
	globalStalls  int
	// pendingPeerBytes is peer-link wire volume recorded since the last
	// executed step (fleet prefix fetches, migration page moves),
	// drained into that step's StepWork.PeerBytes and res.PeerBytes.
	pendingPeerBytes int64
	// forkSeq numbers engine-generated branch IDs.
	forkSeq int64
	// promptsCollected and promptsLeft count retired requests by where
	// their prompt went: to the prompt sink, or left to the GC
	// (jengadebug's conservation check; see checkHandBack).
	promptsCollected, promptsLeft int
}

// SetRetireSink replaces the sink every request's record is handed to
// at its exit. The engine then retains no records (Result.PerRequest
// stays empty) and its memory stays bounded over million-request
// streams; every aggregate field of Result is computed exactly either
// way. The sink survives Reset; SetRetireSink(e.Retain) puts the
// default back.
func (e *Engine) SetRetireSink(sink RetireSink) { e.sink = sink }

// Retain is the default sink: it keeps finished requests' records, in
// finish order, for Result.PerRequest.
func (e *Engine) Retain(m RequestMetrics) {
	if m.State == EventFinished {
		e.res.PerRequest = append(e.res.PerRequest, m)
	}
}

// SetPromptSink installs fn to receive the prompt of every request that
// retires on this engine, once the engine holds no reference to it: the
// hand-back half of Submit's borrow, for a driver whose source can reuse
// the buffer (workload.Recycler). Prompts shared between a fork root and
// its branches are never handed over, and neither is anything CrashOut
// or MigrateOut extracts — the prompt travels with the record. fn runs
// on the engine's goroutine; nil, the default, leaves every prompt to
// the GC. The sink survives Reset.
func (e *Engine) SetPromptSink(fn func(prompt []core.Token)) { e.promptSink = fn }

// retire is the one way out of the engine: whoever ends a request has
// detached it from its queue and released its KV, and retire does the
// rest — returns the token buffer, completes the request's record,
// folds it into the run's tally, hands it to the sink, emits the
// terminal event ev, and last gives up the prompt and the run.
//
//jenga:hotpath
func (e *Engine) retire(r *run, ev EventType) {
	e.returnTokens(r)
	m := RequestMetrics{
		ID:             r.req.ID,
		State:          ev,
		Arrival:        r.req.Arrival,
		E2E:            max(e.clock-r.req.Arrival, 0), // cancelled ahead of its arrival: no lifetime yet
		Deadline:       r.req.Deadline,
		Group:          r.req.Group,
		Priority:       r.req.Priority,
		Tokens:         r.promptLen() + r.req.OutputLen,
		Preemptions:    r.preemptions,
		RestoredTokens: r.restoredTokens,
		RestoreBytes:   r.restoredBytes,
		RestoreTime:    e.cfg.Device.PCIeTime(r.restoredBytes),
	}
	if r.firstToken > 0 {
		m.TTFT = r.firstToken - r.req.Arrival
		m.Generated = 1 + r.decodesDone
	}
	switch ev {
	case EventFinished:
		e.res.Finished++
		e.ttftSum += m.TTFT
		e.e2eSum += m.E2E
		if r.req.OutputLen > 1 {
			e.tpotSum += (e.clock - r.firstToken) / time.Duration(r.req.OutputLen-1)
			e.tpotN++
		}
	case EventFailed:
		e.res.Failed++
	case EventShed:
		e.res.Shed++
	case EventCancelled:
		e.res.Cancelled++
	}
	e.sink(m)
	e.emit(ev, r)
	if e.promptSink != nil && !r.promptShared {
		e.promptSink(r.req.Prompt)
		e.promptsCollected++
	} else {
		e.promptsLeft++
	}
	e.dropRun(r)
}

// New validates the config and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Spec == nil || cfg.Manager == nil {
		return nil, fmt.Errorf("engine: spec and manager are required")
	}
	if cfg.MaxBatchTokens <= 0 {
		cfg.MaxBatchTokens = 2048
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 256
	}
	if cfg.MaxPrefills <= 0 {
		cfg.MaxPrefills = 2
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 2_000_000
	}
	if cfg.Device.Name == "" {
		cfg.Device = gpu.H100()
	}
	e := &Engine{
		cfg:       cfg,
		cost:      gpu.CostModel{Dev: cfg.Device, Spec: cfg.Spec},
		scheduler: cfg.Scheduler,
	}
	if draft := cfg.Spec.Draft; draft != nil {
		if cfg.MaxBatchTokens < SpecK+1 {
			return nil, fmt.Errorf("engine: MaxBatchTokens %d cannot hold one %d-token verify pass of %s",
				cfg.MaxBatchTokens, SpecK+1, cfg.Spec.Name)
		}
		e.draftCost = &gpu.CostModel{Dev: cfg.Device, Spec: draft}
	}
	if e.scheduler == nil {
		e.scheduler = sched.NewFCFS()
	}
	e.admPreempt = sched.CanAdmissionPreempt(e.scheduler)
	e.sink = e.Retain
	e.tier, _ = cfg.Manager.(core.TierManager)
	e.forker, _ = cfg.Manager.(core.Forker)
	// 2 FLOPs per active parameter per token, compute-bound: the same
	// first-order term the cost model charges per scheduled token.
	if f := cfg.Device.FLOPS; f > 0 {
		e.drainRate = f / (2 * float64(cfg.Spec.ActiveParamCount()))
	}
	return e, nil
}

// Run simulates serving the request set to completion: the batch
// driver over the streaming core — every request is submitted up
// front, then the core steps until drained. Run is restartable: each
// call starts from a clean scheduler state, but the Manager keeps
// whatever prefix cache earlier runs left behind, so back-to-back runs
// model a warmed-up replica.
func (e *Engine) Run(reqs []workload.Request) (*Result, error) {
	e.reset()
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			return nil, err
		}
	}
	if err := e.Drain(); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// reset returns the scheduler to a clean state so Run can be called
// again on the same engine (the manager's cache is deliberately kept,
// and so are the free lists: abandoned runs and their buffers rejoin
// them).
func (e *Engine) reset() {
	for _, q := range e.queues() {
		for _, r := range q {
			e.returnTokens(r)
			e.dropRun(r)
		}
	}
	e.recycleRuns()
	e.checkHandBack("reset")
	e.clock = 0
	e.step = 0
	e.pending.reset()
	e.waiting.reset()
	e.running = nil
	e.tally = tally{}
	if e.tier != nil {
		e.tierBase = e.tier.TierStats()
	}
}

// queues lists the live requests in the engine's one deterministic
// order: running (schedule order), waiting (queue order), pending
// (arrival order). Everything in the first two has had its arrival
// processed.
func (e *Engine) queues() [3][]*run {
	return [3][]*run{e.running, e.waiting.items(), e.pending.items()}
}

// sampleKVUtil records the fraction of KV capacity holding live or
// cached KV.
func (e *Engine) sampleKVUtil() {
	e.kvSampledStep = e.step
	capacity := e.cfg.Manager.Capacity()
	if capacity <= 0 {
		return
	}
	u := e.cfg.Manager.UsageTotals()
	util := float64(u.Used+u.Cached) / float64(capacity)
	e.kvUtilSum += util
	e.kvUtilN++
	if util > e.res.PeakKVUtil {
		e.res.PeakKVUtil = util
	}
}

// finishSampling takes the drain-time closing KV-utilization sample,
// unless the last step already took one (or nothing ran at all).
func (e *Engine) finishSampling() {
	if e.step%kvUtilEvery != 0 && e.kvSampledStep != e.step {
		e.sampleKVUtil()
	}
}

// admitArrivals moves arrived requests into the waiting queue,
// applying the admission policy at each request's arrival instant.
func (e *Engine) admitArrivals() {
	for e.pending.len() > 0 && e.pending.front().req.Arrival <= e.clock {
		r := e.pending.popFront()
		if e.cfg.Admission != nil && e.cfg.Admission.Decide(&r.req, e.admissionState(r)) == Shed {
			// The manager has seen the request (the policy's probe, a
			// fleet fetch at dispatch): it leaves that way too.
			e.cfg.Manager.Release(&r.seq, false)
			e.retire(r, EventShed)
			continue
		}
		e.waiting.pushBack(r)
		e.emit(EventQueued, r)
	}
}

// runStep schedules and executes one engine step. Reports whether any
// work happened.
//
//jenga:hotpath
func (e *Engine) runStep() bool {
	now := core.Tick(e.step)
	work := gpu.StepWork{KernelEfficiency: e.cfg.KernelEfficiency}
	budget := e.cfg.MaxBatchTokens
	committers := e.committers[:0]
	decodeBatch := 0

	// The scheduler splits the step budget between the decode and
	// prefill paths; the historical policy (DefaultSplit) is a shared
	// budget consumed decode-first.
	split := e.scheduler.PrefillBudget(e.policyView(), budget)
	decodeLeft := clampBudget(split.Decode, budget)
	prefillLeft := clampBudget(split.Prefill, budget)

	// Phase 0: blocked-admission preemption. This must run before any
	// work is scheduled — once a run's commit is in flight it is
	// preemption-immune, so by admission time (phase 3) every decode
	// scheduled this step is untouchable and a blocked high-priority
	// arrival could never get in. Here nothing is in flight yet: the
	// policy may evict running victims for the admission candidate it
	// would pick. Policies that never preempt at admission (FCFS,
	// SJF, FairShare — and the historical engine) skip the phase
	// entirely via the cached AdmissionPreempter capability; one view
	// fill serves both the pick and the victim call of an iteration
	// (nothing mutates between them).
	if e.admPreempt && e.waiting.len() > 0 && len(e.running) > 0 {
		for {
			idx, v := e.pickWaiting()
			cand := e.waiting.items()[idx]
			if fits, feasible := e.admissionGate(cand, v.Usage, v.Capacity); fits || !feasible {
				break // admissible as things are, or never: evicting the fleet cannot help
			}
			victim := e.validVictim(e.scheduler.VictimFor(e.reqInfo(cand, true), v), cand.req.ID)
			if victim == nil {
				break
			}
			e.preempt(victim)
		}
	}

	// Phase 1: one decode pass per running decode-phase sequence — one
	// token, or under a speculative pair one verify pass over SpecK
	// proposals plus the bonus position, which is scheduled whole or
	// not at all. The running list can shrink mid-loop
	// (reserveWithPreemption), so iterate a reused snapshot and skip
	// runs a preemption removed.
	pass := 1
	if e.draftCost != nil {
		pass = SpecK + 1
	}
	e.stepScratch = append(e.stepScratch[:0], e.running...)
	for _, r := range e.stepScratch {
		if r.ph != phaseDecode || budget < pass || decodeLeft < pass {
			continue
		}
		if !r.alive {
			continue // preempted by an earlier iteration of this loop
		}
		e.ownTokens(r)
		gain := 1
		if e.draftCost != nil {
			gain = min(acceptedDrafts(r.req.ID, len(r.seq.Tokens))+1, r.req.OutputLen-1-r.decodesDone)
		}
		for i := 0; i < gain; i++ {
			r.seq.Tokens = append(r.seq.Tokens, e.genToken(r))
		}
		target := len(r.seq.Tokens)
		if !e.reserveWithPreemption(r, target, now) {
			// Roll the speculative append back and wait for memory.
			r.seq.Tokens = r.seq.Tokens[:target-gain]
			continue
		}
		r.pendingTarget = target
		r.scheduledStep = e.step
		committers = append(committers, r)
		budget -= pass
		decodeLeft -= pass
		decodeBatch++
		work.DecodeSeqs += pass
		work.KVReadBytes += gpu.DecodeKVReadBytesSplit(e.cfg.Spec, r.ctxText, r.ctxImg)
	}

	// Phase 2: prefill chunks for running prefill-phase sequences.
	// Prefill continuation never preempts — it waits for decodes to
	// drain or for the decode path to preempt on its behalf.
	for _, r := range e.running {
		if r.ph != phasePrefill || budget <= 0 || prefillLeft <= 0 {
			continue
		}
		chunk := e.schedulePrefill(r, min(budget, prefillLeft), now, &work)
		if chunk > 0 {
			budget -= chunk
			prefillLeft -= chunk
			committers = append(committers, r)
		}
	}

	// Phase 3: admission of waiting requests, in the scheduler's
	// order. A request is admitted only when what it would newly occupy
	// at steady state fits in free plus evictable memory (vLLM's
	// can_allocate check, shared blocks counted once) — otherwise
	// chunked prefill would over-admit and thrash on
	// recompute-preemption. A policy may resolve a blocked admission by
	// preempting a running victim (strict priority); the historical
	// policies never do. Phase 0's verdict on the same candidate does
	// not carry over: phases 1 and 2 reserved, and may have preempted a
	// request whose pages the candidate shares.
	prefills := 0
	for _, r := range e.running {
		if r.ph == phasePrefill {
			prefills++
		}
	}
	for budget > 0 && prefillLeft > 0 && e.waiting.len() > 0 && len(e.running) < e.cfg.MaxRunning &&
		prefills < e.cfg.MaxPrefills {
		idx, v := e.pickWaiting()
		r := e.waiting.items()[idx]
		blocked := false
		for u := v.Usage; ; u = e.cfg.Manager.UsageTotals() {
			fits, feasible := e.admissionGate(r, u, v.Capacity)
			if fits {
				break
			}
			if !e.admPreempt || !feasible {
				blocked = true
				break
			}
			victim := e.victimFor(e.reqInfo(r, true))
			if victim == nil {
				blocked = true
				break
			}
			if victim.ph == phasePrefill {
				prefills--
			}
			e.preempt(victim)
			idx++ // preempt prepended the victim to the waiting queue
		}
		if blocked {
			break
		}
		prefills++
		e.running = append(e.running, r)
		r.alive = true
		e.waiting.remove(idx)
		if !r.started {
			r.started = true
		}
		chunk := e.schedulePrefill(r, min(budget, prefillLeft), now, &work)
		if chunk == 0 {
			// Could not reserve the first chunk: admission is
			// all-or-nothing, so drop any partial reservation (a
			// waiting request must hold no memory — it is invisible to
			// preemption) and stop admitting. The release preserves
			// cache: the claim may have attached previously cached (or
			// host-tier-restored) complete blocks, and destroying them
			// here would force the next admission attempt to restore
			// or recompute the identical content again.
			e.running = e.running[:len(e.running)-1]
			r.alive = false
			e.cfg.Manager.Release(&r.seq, true)
			r.computed = 0
			r.resetCtx()
			r.cachedHit = 0
			r.encoded = false
			e.waiting.pushFront(r)
			break
		}
		budget -= chunk
		prefillLeft -= chunk
		committers = append(committers, r)
	}

	e.committers = committers
	if len(committers) == 0 {
		return false
	}

	// Execute: advance the clock by the cost model, then commit. The
	// manager's tier transfers (spills during this step's evictions,
	// restores during its claims) ride the PCIe term of the same step.
	if e.tier != nil {
		h2d, d2h := e.tier.DrainTransfers()
		work.SwapBytes += h2d + d2h
	}
	// Copy-on-write privatizations triggered by this step's
	// reservations are device-to-device copies on the HBM term.
	if e.forker != nil {
		work.CopyBytes += e.forker.DrainCopyBytes()
	}
	// Peer-link transfers recorded since the previous executed step
	// (fleet prefix fetches, migration page moves) ride this step's
	// interconnect term.
	if e.pendingPeerBytes > 0 {
		work.PeerBytes += e.pendingPeerBytes
		e.res.PeerBytes += e.pendingPeerBytes
		e.pendingPeerBytes = 0
	}
	// Fault windows in effect at this instant (degraded links,
	// stragglers) scale the step's DMA terms and duration.
	if e.cfg.Faults != nil {
		f := e.cfg.Faults.StepFault(e.clock)
		work.PCIeFactor, work.LinkFactor, work.TimeFactor = f.PCIe, f.Link, f.Slow
	}
	dt := e.cost.StepTime(work)
	if e.draftCost != nil {
		// The draft runs first: the step's prompt chunks go through it
		// as well, and it proposes for the verify batch in SpecK
		// sequential one-token passes. (A pass without tokens is free.)
		dw := gpu.StepWork{PrefillTokens: work.PrefillTokens, KernelEfficiency: work.KernelEfficiency, TimeFactor: work.TimeFactor}
		dt += e.draftCost.StepTime(dw)
		dw.PrefillTokens, dw.DecodeSeqs = 0, decodeBatch
		dt += SpecK * e.draftCost.StepTime(dw)
	}
	e.clock += dt
	if decodeBatch > 0 {
		e.decodeSteps++
		e.decodeSum += int64(decodeBatch)
	}
	if e.cfg.SampleEvery > 0 {
		e.res.DecodeBatchTimeline = append(e.res.DecodeBatchTimeline, decodeBatch)
	}
	for _, r := range committers {
		e.cfg.Manager.Commit(&r.seq, r.pendingTarget, now)
		if r.ph == phasePrefill {
			e.res.ComputedPromptTokens += int64(r.pendingTarget - r.computed)
			// Work below the run's high-water mark was computed once
			// already: recomputation, the waste swap preemption avoids.
			if rec := min(r.pendingTarget, r.everComputed) - r.computed; rec > 0 {
				e.res.RecomputedTokens += int64(rec)
			}
			r.advanceCtx(r.computed, r.pendingTarget)
			r.computed = r.pendingTarget
			if r.computed > r.everComputed {
				r.everComputed = r.computed
			}
			if e.cfg.Vision == VisionFreeOnDemand && e.cfg.Manager.SupportsVisionCache() {
				e.cfg.Manager.DropImages(&r.seq, r.computed)
			}
			// After a preemption the recompute pass covers generated
			// tokens too, so completion is against the full sequence.
			if r.computed >= len(r.seq.Tokens) {
				// Prefill complete: first output token produced now.
				r.ph = phaseDecode
				if r.firstToken == 0 {
					r.firstToken = e.clock
					e.emit(EventFirstToken, r)
				}
				if r.req.OutputLen == 1 {
					e.finishRun(r)
				}
			}
		} else {
			gain := r.pendingTarget - r.computed
			r.advanceCtx(r.computed, r.pendingTarget)
			r.computed = r.pendingTarget
			if r.computed > r.everComputed {
				r.everComputed = r.computed
			}
			r.decodesDone += gain
			e.res.GeneratedTokens += int64(gain)
			if r.firstToken == 0 {
				// Only forked branches reach decode without a first
				// token: this is the branch's TTFT instant.
				r.firstToken = e.clock
				e.emit(EventFirstToken, r)
			} else {
				e.emit(EventToken, r)
			}
			if r.req.Fanout > 1 && !r.forkDone && r.decodesDone >= r.req.ForkAfter {
				e.autoFork(r)
			}
			if r.decodesDone >= r.req.OutputLen-1 {
				e.finishRun(r)
			}
		}
	}
	return true
}

// schedulePrefill reserves the next prefill chunk for r without
// preempting anyone, running the vision encoder per the configured
// strategy. Returns the number of tokens scheduled for compute
// (0 when blocked on memory).
func (e *Engine) schedulePrefill(r *run, budget int, now core.Tick, work *gpu.StepWork) int {
	if r.computed == 0 && r.cachedHit == 0 {
		// First chunk after (re)admission: consult the prefix cache.
		r.cachedHit = e.cfg.Manager.Lookup(&r.seq)
	}
	images := r.req.PromptImages()
	encoderTokens := 0
	if images > 0 && e.cfg.Spec.Vision != nil {
		switch {
		case e.cfg.Vision == VisionFreeOnDemand && e.cfg.Manager.SupportsVisionCache():
			if !r.encoded {
				// Embeddings must exist before the chunk consumes them.
				if err := e.cfg.Manager.EncodeImages(&r.seq, r.promptLen(), now); err != nil {
					return 0
				}
				encoderTokens = images
			}
		case e.cfg.Vision == VisionReuseKV:
			if !r.encoded {
				encoderTokens = images
			}
		default:
			// No embedding cache: the encoder re-runs for every chunk
			// that still needs image embeddings (§7.4 / Fig. 18).
			if e.imagesRemaining(r) {
				encoderTokens = images
			}
		}
	}

	start := r.computed
	if start < r.cachedHit {
		start = r.cachedHit
	}
	// Recompute passes after preemption cover generated tokens too.
	total := len(r.seq.Tokens)
	chunk := total - start
	if chunk > budget {
		chunk = budget
	}
	if chunk < 0 {
		chunk = 0
	}
	target := start + chunk
	if err := e.cfg.Manager.Reserve(&r.seq, target, now); err != nil {
		return 0
	}
	// A prefix hit skips compute for [r.computed, claimed). A
	// host-tier claim can come back shorter than the advisory Lookup
	// promised (mid-claim restore ran out of device memory and fell
	// back to the GPU-only prefix): reconcile cachedHit down so later
	// chunks size themselves from the real claim, not the stale
	// advisory. Untiered, claim and advisory always agree.
	claimed := e.cfg.Manager.CachedPrefix(&r.seq)
	if claimed < r.cachedHit {
		r.cachedHit = claimed
	}
	if claimed > r.computed {
		e.res.CachedPromptTokens += int64(claimed - r.computed)
		r.advanceCtx(r.computed, claimed)
		r.computed = claimed
		if r.computed > r.everComputed {
			r.everComputed = r.computed
		}
		// The claim runs once per (re)admission; fold its host-tier
		// restore share into the run's record and the run totals.
		// This branch only runs after the first chunk reserved
		// successfully, so claims whose admission rolled back (and
		// whose restored blocks may thrash back to the tier and be
		// restored again) never inflate RestoredTokens past the
		// prefill work actually served — TierHitRate stays ≤ HitRate.
		if e.tier != nil {
			if tok, bytes := e.tier.RestoreCost(&r.seq); tok > 0 || bytes > 0 {
				r.restoredTokens += tok
				r.restoredBytes += bytes
				e.res.RestoredTokens += int64(tok)
			}
		}
	}
	if target < r.computed {
		target = r.computed
	}
	// A host-tier claim can fall back to a shorter GPU-only prefix
	// than the advisory Lookup promised (mid-claim restore ran out of
	// device memory): clamp the commit target so the step still
	// computes at most `chunk` tokens — the budget cap must hold even
	// on the fallback path. Reserved-but-uncommitted slots beyond the
	// clamp stay reserved for the next chunk. Untiered, the claim
	// always equals the advisory lookup and the clamp is a no-op.
	if target > r.computed+chunk {
		target = r.computed + chunk
	}
	r.pendingTarget = target
	r.scheduledStep = e.step
	if encoderTokens > 0 {
		work.EncoderTokens += encoderTokens
		e.res.EncoderRuns++
		if e.cfg.Vision != VisionNone {
			r.encoded = true
		}
	}
	computeTokens := target - r.computed
	work.PrefillTokens += computeTokens
	work.KVReadBytes += gpu.DecodeKVReadBytesSplit(e.cfg.Spec, r.ctxText, r.ctxImg)
	if computeTokens == 0 {
		// Nothing to compute (full-prompt hit): commit advances state.
		return 1
	}
	return computeTokens
}

// imagesRemaining reports whether un-prefilled image tokens remain.
func (e *Engine) imagesRemaining(r *run) bool {
	for i := r.computed; i < r.promptLen(); i++ {
		if r.req.Prompt[i].Image() {
			return true
		}
	}
	return false
}

// reserveWithPreemption tries to reserve KV for r, recompute-
// preempting the scheduler's chosen victims when memory runs out —
// vLLM's recompute preemption with the victim order delegated to the
// scheduling policy.
func (e *Engine) reserveWithPreemption(r *run, upTo int, now core.Tick) bool {
	for {
		err := e.cfg.Manager.Reserve(&r.seq, upTo, now)
		if err == nil {
			return true
		}
		victim := e.victimFor(e.reqInfo(r, false))
		if victim == nil {
			return false
		}
		e.preempt(victim)
	}
}

// victimFor asks the scheduler for requester's preemption victim.
func (e *Engine) victimFor(requester sched.ReqInfo) *run {
	return e.validVictim(e.scheduler.VictimFor(requester, e.policyView()), requester.ID)
}

// validVictim validates a scheduler's victim pick: out-of-range
// indices, the requester itself and runs whose commits are in flight
// this step are all treated as "no victim", so a broken custom policy
// degrades to a failed reservation instead of corrupting the step.
func (e *Engine) validVictim(idx int, requesterID int64) *run {
	if idx < 0 || idx >= len(e.running) {
		return nil
	}
	victim := e.running[idx]
	if victim.req.ID == requesterID || victim.scheduledStep == e.step {
		return nil
	}
	return victim
}

// pickWaiting returns the index of the next admission candidate in
// the scheduler's order, clamped defensively to the queue front, and
// the view it was picked from.
func (e *Engine) pickWaiting() (int, *sched.View) {
	v := e.policyView()
	idx := e.scheduler.PickWaiting(v)
	if idx < 0 || idx >= e.waiting.len() {
		idx = 0
	}
	return idx, v
}

// admissionGate is the admission check on candidate r against usage u
// of a manager of the given capacity, with the manager asked once:
// fits reports whether what r would newly occupy fits in free plus
// evictable memory, keeping a 1% watermark clear; feasible whether it
// would within total capacity minus the watermark. Admission-time
// preemption must not fire for infeasible candidates —
// recompute-preempting the entire running set could not make room, so
// one impossible arrival must not wipe the fleet's in-flight work.
func (e *Engine) admissionGate(r *run, u core.Usage, capacity int64) (fits, feasible bool) {
	charge := e.cfg.Manager.Footprint(&r.seq)
	watermark := capacity / 100
	return charge <= u.Free+u.Cached-watermark, charge <= capacity-watermark
}

// policyView repopulates the reusable scheduler view from the live
// queues. Slices are reused so steady-state steps allocate nothing.
func (e *Engine) policyView() *sched.View {
	v := &e.schedView
	v.Clock = e.clock
	v.Step = e.step
	v.Usage = e.cfg.Manager.UsageTotals()
	v.Capacity = e.cfg.Manager.Capacity()
	v.Waiting = v.Waiting[:0]
	for _, r := range e.waiting.items() {
		v.Waiting = append(v.Waiting, e.reqInfo(r, true))
	}
	v.Running = v.Running[:0]
	for _, r := range e.running {
		v.Running = append(v.Running, e.reqInfo(r, false))
	}
	return v
}

// reqInfo summarizes one run for the scheduler.
func (e *Engine) reqInfo(r *run, waiting bool) sched.ReqInfo {
	info := sched.ReqInfo{
		ID:        r.req.ID,
		Priority:  r.req.Priority,
		Arrival:   r.req.Arrival,
		Deadline:  r.req.Deadline,
		Group:     r.req.Group,
		PromptLen: r.promptLen(),
		OutputLen: r.req.OutputLen,
		Waiting:   waiting,
	}
	// Remaining work: uncommitted tokens (a recompute pass after
	// preemption covers generated tokens too) plus undone output.
	remTok := len(r.seq.Tokens) - r.computed
	if remTok < 0 {
		remTok = 0
	}
	remOut := r.req.OutputLen - 1 - r.decodesDone
	if remOut < 0 {
		remOut = 0
	}
	info.Remaining = remTok + remOut
	if !waiting {
		if r.ph == phaseDecode {
			info.Phase = sched.PhaseDecode
		} else {
			info.Phase = sched.PhasePrefill
		}
		info.ScheduledNow = r.scheduledStep == e.step
	}
	return info
}

// clampBudget bounds a scheduler-returned budget share to [0, total].
func clampBudget(share, total int) int {
	if share > total {
		return total
	}
	if share < 0 {
		return 0
	}
	return share
}

// preempt releases a sequence's memory and requeues it. In recompute
// mode the victim's pages return to the evictable prefix cache; in
// swap mode they additionally move to the manager's host tier, so the
// victim resumes by restoring over PCIe even if GPU pressure evicted
// everything in between. Either way re-admission goes through the
// prefix-cache claim, so whatever survives is never recomputed.
func (e *Engine) preempt(victim *run) {
	if e.cfg.PreemptMode == PreemptSwap && e.tier != nil {
		e.tier.SwapOut(&victim.seq)
	} else {
		e.cfg.Manager.Release(&victim.seq, true)
	}
	victim.ph = phasePrefill
	victim.computed = 0
	victim.resetCtx()
	victim.cachedHit = 0
	victim.encoded = false
	victim.preemptions++
	e.res.Preemptions++
	e.removeRunning(victim)
	e.waiting.pushFront(victim)
	e.emit(EventPreempted, victim)
}

// handleStall resolves a step that scheduled nothing. Returns false if
// the simulation is irrecoverably stuck.
func (e *Engine) handleStall() bool {
	// Future arrivals: fast-forward.
	if len(e.running) == 0 && e.waiting.len() == 0 && e.pending.len() > 0 {
		e.clock = e.pending.front().req.Arrival
		e.globalStalls = 0
		return true
	}
	// A waiting request that cannot start even on an idle engine can
	// never run (the Ministral-on-L4 vLLM failure): fail it. The
	// candidate is the one admission actually tried — pickWaiting's
	// choice — not blindly waiting[0], or a stuck high-priority
	// request would sink every fitting request queued behind it.
	if len(e.running) == 0 && e.waiting.len() > 0 {
		idx, _ := e.pickWaiting()
		r := e.waiting.items()[idx]
		e.waiting.remove(idx)
		e.cfg.Manager.Release(&r.seq, false)
		e.retire(r, EventFailed)
		e.globalStalls = 0
		return true
	}
	if len(e.running) == 0 {
		return false
	}
	// Running sequences globally stuck: the decode path already
	// preempted everyone it could, so the largest remaining context
	// exceeds capacity on its own. Give eviction a couple of steps,
	// then fail it.
	if e.globalStalls <= 2 {
		return true
	}
	var worst *run
	for _, r := range e.running {
		if worst == nil || len(r.seq.Tokens) > len(worst.seq.Tokens) {
			worst = r
		}
	}
	e.cfg.Manager.Release(&worst.seq, false)
	e.removeRunning(worst)
	e.retire(worst, EventFailed)
	e.globalStalls = 0
	return true
}

// finishRun ends a run that produced its full output: its pages return
// to the evictable prefix cache.
func (e *Engine) finishRun(r *run) {
	e.cfg.Manager.Release(&r.seq, true)
	e.removeRunning(r)
	e.retire(r, EventFinished)
}

func (e *Engine) removeRunning(r *run) {
	r.alive = false
	for i, c := range e.running {
		if c == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			return
		}
	}
}

// genToken produces the deterministic "generated" token for a decode
// step (content derived from request id and position so prefix caching
// across identical requests behaves consistently).
func (e *Engine) genToken(r *run) core.Token {
	pos := len(r.seq.Tokens)
	x := uint64(r.req.ID)*0x9E3779B97F4A7C15 + uint64(pos)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	return core.Token{ID: int32(x%50000 + 1)}
}

// result copies the tally's Result out and derives what is not
// accumulated in place.
func (e *Engine) result() *Result {
	res := e.res
	res.Duration, res.Steps = e.clock, e.step
	// A copy, never nil: the engine keeps appending to its own.
	res.PerRequest = append([]RequestMetrics{}, res.PerRequest...)
	if e.kvUtilN > 0 {
		res.MeanKVUtil = e.kvUtilSum / float64(e.kvUtilN)
	}
	// Host-tier accounting. Transfer counts and volumes are per-run
	// deltas of the manager's counters (the manager may be warm
	// across runs) and include every wire transfer, even for claims
	// whose admission later rolled back. RestoredTokens is the
	// engine's served-claims tally — the subset of restored prefix
	// that reached admitted work — so TierHitRate stays bounded by
	// HitRate.
	if e.tier != nil {
		ts := e.tier.TierStats()
		res.SwapOuts = ts.SwapOuts - e.tierBase.SwapOuts
		res.SwapIns = ts.SwapIns - e.tierBase.SwapIns
		res.SwapOutBytes = ts.SpilledBytes - e.tierBase.SpilledBytes
		res.SwapInBytes = ts.RestoredBytes - e.tierBase.RestoredBytes
		res.HostTierUsed = ts.HostUsed
		res.HostTierCapacity = ts.HostCapacity
	}
	res.Rates()
	if n := res.Finished; n > 0 {
		res.MeanTTFT = e.ttftSum / time.Duration(n)
		res.MeanE2E = e.e2eSum / time.Duration(n)
	}
	if e.tpotN > 0 {
		res.MeanTPOT = e.tpotSum / time.Duration(e.tpotN)
	}
	if e.decodeSteps > 0 {
		res.MeanDecodeBatch = float64(e.decodeSum) / float64(e.decodeSteps)
	}
	return &res
}
