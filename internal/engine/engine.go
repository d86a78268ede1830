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
	"slices"
	"time"

	"jenga/internal/core"
	"jenga/internal/debug"
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
	// SampleEvery switches the per-step timelines on: any value above 0
	// keeps Result.DecodeBatchTimeline (one entry per executed step)
	// and records a Result.MemTimeline sample every N steps. 0, the
	// default, keeps neither — an engine then holds no per-step slice.
	SampleEvery int
	// MaxSteps aborts runaway simulations. Default 2_000_000.
	MaxSteps int
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
	roll.Grow(len(r.PerRequest))
	for i := range r.PerRequest {
		roll.Observe(&r.PerRequest[i])
	}
	return roll.Latency(r.Duration)
}

// runState is a request's place in the engine. A run moves between
// states only through Engine.to, along the edges lifecycle allows.
type runState int8

const (
	// pending: submitted, its arrival instant not reached yet.
	pending runState = iota
	// waiting: in the waiting queue since its arrival, a preemption
	// (recompute or swap alike) or a migration out of another engine's
	// waiting queue. The time spent here is RequestMetrics.QueueWait.
	waiting
	// migrating: in the waiting queue after MigrateIn took it from
	// another engine's running set, by migration or crash redispatch.
	migrating
	// prefilling and decoding: in the running set.
	prefilling
	decoding
	// done: retired.
	done
	numStates
)

// lifecycle is the table of allowed moves, lifecycle[from][to]. An
// admission rolled back (its first chunk could not be reserved) is no
// move: the run never left waiting or migrating.
var lifecycle = [numStates][numStates]bool{
	pending:    {waiting: true, done: true},
	waiting:    {prefilling: true, done: true},
	migrating:  {prefilling: true, done: true},
	prefilling: {decoding: true, waiting: true, migrating: true, done: true},
	decoding:   {waiting: true, migrating: true, done: true},
}

// carried is the part of a request's runtime state that travels with
// it between engines. A Migrated record holds it whole, so neither a
// migration nor a crash redispatch loses a fact the request's terminal
// record reports, and a new such fact is one field here.
type carried struct {
	// req is the engine's own copy of the request header; req.Shared
	// and req.Prompt still point at the submitter's arrays, which are
	// only ever read, and req.Own is the recipe the run's prompt buffer
	// is filled from at arrival.
	req workload.Request
	// promptShared marks the run's prompt buffer as shared with another
	// request (a fork root and its branches): nobody may return it.
	promptShared bool
	// forkDone marks that the request's Fanout expansion already fired
	// (set on forked children at creation so they never re-fork).
	forkDone bool
	// state is where the request is, since run.enteredAt.
	state runState
	// images is the prompt's image-token count, counted once at Submit
	// (a recipe's without filling it): the prompt never changes. Only a spec with a vision
	// encoder reads it (schedulePrefill), so a text spec never counts
	// and carries 0. An int32 after state fills padding, so the run
	// stays 416 bytes.
	images int32
	// spent is the time the request spent in each state before it
	// entered the current one, on every engine it ran on.
	spent [numStates]time.Duration
	// decodesDone counts completed decode steps (need OutputLen-1).
	decodesDone int
	// everComputed is the high-water mark of run.computed: prefill work
	// below it is recomputation (preemption waste), which the host tier
	// avoids by restoring instead.
	everComputed int
	// firstToken is the TTFT instant (0 before prefill completed).
	firstToken time.Duration
	// restoredTokens and restoredBytes accumulate the request's
	// host-tier restore share across (re)admissions; preemptions counts
	// how often it lost its KV.
	restoredTokens int
	restoredBytes  int64
	preemptions    int
}

// run is one request's runtime state on this engine: what it carries,
// plus what lives only as long as its stay here. Runs are pooled
// (runpool.go): whoever takes one overwrites it whole, and nothing may
// keep a *run past the step in which its request left the engine.
type run struct {
	carried
	// seq borrows req.Shared as its Shared, holds the own part in
	// Tokens — req.Prompt borrowed, or from arrival on a buffer from the
	// prompt pool filled from req.Own — and the generated tail in Out, a
	// buffer from the engine's free list. See tokbuf.go.
	seq core.Sequence
	// enteredAt is when the request entered its current state.
	enteredAt time.Duration
	// computed is the number of tokens with committed KV.
	computed int
	// cachedHit is the prefix served from cache at (re)admission.
	cachedHit int
	// encoded marks that the vision encoder ran for the current
	// prefill pass (resets on preemption).
	encoded bool
	// slot is the run's position in the running set while it runs
	// (runSet), where the scheduler's summary of it sits. An int32
	// after encoded fills padding, so the run stays 416 bytes.
	slot int32
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
}

// to moves r to state next at now, charging the time since it entered
// its current state to that state. It is the only writer of run.state
// outside the run{…} literals that create one (make guard).
//
//jenga:hotpath
func (e *Engine) to(r *run, next runState, now time.Duration) {
	if debug.On {
		checkMove(r, next)
	}
	e.moves[r.state][next]++
	r.settle(now)
	r.state = next
}

// checkMove panics on a move lifecycle does not allow, or from a state
// no live run can be in (a recycled run still in use).
func checkMove(r *run, next runState) {
	if r.state < 0 || r.state >= numStates || !lifecycle[r.state][next] {
		panic(fmt.Sprintf("engine: request %d cannot move from state %d to %d", r.req.ID, r.state, next))
	}
}

// settle closes r's open interval at now, charging it to r's state.
func (r *run) settle(now time.Duration) {
	r.spent[r.state] += max(now-r.enteredAt, 0)
	r.enteredAt = now
}

// running reports whether r is in the running set, and so holds KV.
func (r *run) running() bool { return r.state == prefilling || r.state == decoding }

// remaining is r's unserved work: uncommitted tokens (a recompute pass
// after preemption covers generated tokens too) plus undone output. It
// reads the prompt's length, not seq.Len(): a pending run's own part is
// not filled yet.
func (r *run) remaining() int {
	return max(r.promptLen()+len(r.seq.Out)-r.computed, 0) + max(r.req.OutputLen-1-r.decodesDone, 0)
}

// commitTo advances computed to n: tokens [computed, n) join the
// committed text and image counts, and the high-water mark follows.
func (r *run) commitTo(n int) {
	hi := max(min(n, r.seq.Len()), r.computed)
	img := core.CountImages(r.seq.Span(r.computed, hi))
	r.ctxImg += img
	r.ctxText += hi - r.computed - img
	r.computed = n
	r.everComputed = max(r.everComputed, n)
}

// rewind drops r's KV progress back to none: a preemption, or an
// admission rolled back.
func (r *run) rewind() {
	r.computed, r.cachedHit, r.ctxText, r.ctxImg, r.encoded = 0, 0, 0, 0, false
}

func (r *run) promptLen() int { return r.seq.PromptLen }

// Engine executes one simulation run.
type Engine struct {
	cfg  Config
	cost gpu.CostModel
	// draftCost prices the draft model's passes; nil unless cfg.Spec is
	// a speculative pair.
	draftCost *gpu.CostModel
	clock     time.Duration
	step      int

	pending queue[*run] // not yet arrived (sorted by arrival)
	waiting waitQueue   // arrived, not running
	running runSet      // admitted: prefilling or decoding

	// onEvent is the streaming sink (nil: no emission).
	onEvent func(Event)
	// roofline is the device's compute-bound token rate (tokens per
	// simulated second): the cap on, and the cold-start value of, the
	// drain rate admission estimates queueing delay with (drainRate).
	roofline float64

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
	// refreshes it before every delegated decision. admPreempt
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

	// tok and prompts are the free lists of Out and prompt buffers
	// (tokbuf.go) and runs the free list of runs (runpool.go); all three
	// survive Reset.
	tok     tokenPool
	prompts promptPool
	runs    runPool

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
	// drainedTokens is the prompt tokens admitted from the waiting queue
	// and busy the simulated time of the steps executed, idle and down
	// time excluded: their ratio is the rate this replica has actually
	// drained its queue at (drainRate).
	drainedTokens int64
	busy          time.Duration
	// moves counts the lifecycle moves made, moves[from][to].
	moves [numStates][numStates]int
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

// retire is the one way out of the engine: whoever ends a request has
// detached it from its queue and released its KV, and retire does the
// rest — returns the token buffer, completes the request's record,
// folds it into the run's tally, hands it to the sink, emits the
// terminal event ev, and last returns the prompt buffer and the run.
//
//jenga:hotpath
func (e *Engine) retire(r *run, ev EventType) {
	e.returnTokens(r)
	e.to(r, done, e.clock)
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
		QueueWait:      r.spent[waiting],
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
	e.returnPrompt(r)
	e.dropRun(r)
}

// New validates the config and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Spec == nil {
		return nil, &core.ConfigError{Config: "engine.Config", Field: "Spec", Reason: "model spec is required"}
	}
	if cfg.Manager == nil {
		return nil, &core.ConfigError{Config: "engine.Config", Field: "Manager", Reason: "manager is required"}
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
	if cfg.PreemptMode != PreemptRecompute && cfg.PreemptMode != PreemptSwap {
		return nil, &core.ConfigError{Config: "engine.Config", Field: "PreemptMode",
			Reason: fmt.Sprintf("unknown preempt mode %d", cfg.PreemptMode)}
	}
	e := &Engine{
		cfg:       cfg,
		cost:      gpu.CostModel{Dev: cfg.Device, Spec: cfg.Spec},
		scheduler: cfg.Scheduler,
	}
	if draft := cfg.Spec.Draft; draft != nil {
		if cfg.MaxBatchTokens < SpecK+1 {
			return nil, &core.ConfigError{Config: "engine.Config", Field: "MaxBatchTokens",
				Reason: fmt.Sprintf("%d cannot hold one %d-token verify pass of %s", cfg.MaxBatchTokens, SpecK+1, cfg.Spec.Name)}
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
		e.roofline = f / (2 * float64(cfg.Spec.ActiveParamCount()))
	}
	return e, nil
}

// drainRate is the rate, in prompt tokens per simulated second, at
// which this replica moves its waiting queue into the running set: the
// prompt tokens it has admitted over the simulated time of the steps it
// has executed since the last reset. A memory-bound replica admits far
// below the compute roofline — what it can start is set by the KV its
// running set leaves free, not by FLOPs — so the measured rate is what
// a queueing estimate must divide by. It never exceeds the roofline,
// and a replica that has admitted nothing yet has only the roofline to
// go by.
func (e *Engine) drainRate() float64 {
	if e.drainedTokens == 0 || e.busy <= 0 {
		return e.roofline
	}
	return min(float64(e.drainedTokens)/e.busy.Seconds(), e.roofline)
}

// Run simulates serving the request set to completion: the batch
// driver over the streaming core — every request is submitted up
// front, then the core steps until drained. Run is restartable: each
// call starts from a clean scheduler state, but the Manager keeps
// whatever prefix cache earlier runs left behind, so back-to-back runs
// model a warmed-up replica.
func (e *Engine) Run(reqs []workload.Request) (*Result, error) {
	e.reset()
	// Every request is pending at once and may finish: size both arrays,
	// and carve the runs, for all of them up front instead of growing
	// them piecemeal.
	e.pending.buf = slices.Grow(e.pending.buf, len(reqs))
	e.res.PerRequest = slices.Grow(e.res.PerRequest, len(reqs))
	e.growRuns(len(reqs))
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
			e.returnPrompt(r)
			e.dropRun(r)
		}
	}
	e.recycleRuns()
	e.checkHandBack("reset")
	e.clock = 0
	e.step = 0
	e.pending.reset()
	e.waiting.reset()
	e.running.reset()
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
	return [3][]*run{e.running.items(), e.waiting.items(), e.pending.items()}
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

// admitArrivals moves arrived requests into the waiting queue, filling
// each one's prompt and then applying the admission policy at its
// arrival instant. The queue grows once for the step's arrivals, so a
// burst (a batch all at t=0) does not regrow it by doubling.
func (e *Engine) admitArrivals() {
	e.waiting.grow(e.arriving(-1))
	for e.pending.len() > 0 && e.pending.front().req.Arrival <= e.clock {
		r := e.pending.popFront()
		e.fillPrompt(r)
		if e.cfg.Admission != nil && e.cfg.Admission.Decide(&r.req, e.admissionState(r)) == Shed {
			// The manager has seen the request (the policy's probe, a
			// fleet fetch at dispatch): it leaves that way too.
			e.cfg.Manager.Release(&r.seq, false)
			e.retire(r, EventShed)
			continue
		}
		e.to(r, waiting, r.req.Arrival)
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
	if e.admPreempt && e.waiting.len() > 0 && e.running.len() > 0 {
		for {
			idx, v := e.pickWaiting()
			cand := e.waiting.items()[idx]
			if fits, feasible := e.admissionGate(cand, v.Usage, v.Capacity); fits || !feasible {
				break // admissible as things are, or never: evicting the fleet cannot help
			}
			victim := e.validVictim(e.scheduler.VictimFor(cand.info(), v), cand.req.ID)
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
	// runs a preemption removed (it left decoding for waiting). The
	// appended tokens are work left to serve from the moment they are
	// appended: the run's summary counts them before the reservation
	// asks for a victim, and drops them again with a rollback.
	pass := 1
	if e.draftCost != nil {
		pass = SpecK + 1
	}
	e.stepScratch = append(e.stepScratch[:0], e.running.items()...)
	for _, r := range e.stepScratch {
		if r.state != decoding || budget < pass || decodeLeft < pass {
			continue
		}
		e.ownTokens(r)
		gain := 1
		if e.draftCost != nil {
			gain = min(acceptedDrafts(r.req.ID, r.seq.Len())+1, r.req.OutputLen-1-r.decodesDone)
		}
		for i := 0; i < gain; i++ {
			r.seq.Out = append(r.seq.Out, e.genToken(r))
		}
		target := r.seq.Len()
		if !e.reserveWithPreemption(r, target, now) {
			// Roll the speculative append back and wait for memory.
			r.seq.Out = r.seq.Out[:len(r.seq.Out)-gain]
			e.running.of(r).Remaining = r.remaining()
			continue
		}
		r.pendingTarget = target
		r.scheduledStep = e.step
		in := e.running.of(r)
		in.Remaining, in.ScheduledNow = r.remaining(), true
		committers = append(committers, r)
		budget -= pass
		decodeLeft -= pass
		decodeBatch++
		work.DecodeSeqs += pass
		work.KVReadBytes += e.cfg.Spec.KVBytes(r.ctxText, r.ctxImg)
	}

	// Phase 2: prefill chunks for running prefill-phase sequences.
	// Prefill continuation never preempts — it waits for decodes to
	// drain or for the decode path to preempt on its behalf.
	for _, r := range e.running.items() {
		if r.state != prefilling || budget <= 0 || prefillLeft <= 0 {
			continue
		}
		chunk := e.schedulePrefill(r, min(budget, prefillLeft), now, &work)
		if chunk > 0 {
			budget -= chunk
			prefillLeft -= chunk
			committers = append(committers, r)
			// The chunk's prefix claim may have committed tokens.
			in := e.running.of(r)
			in.Remaining, in.ScheduledNow = r.remaining(), true
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
	// request whose pages the candidate shares. A candidate that stays
	// blocked is marked in the View and the scheduler asked again: a
	// strict order returns the marked pick and the pass ends there; a
	// priority order may pass it for a later candidate of its class
	// (sched.Scheduler.PickWaiting). The marks are cleared when the
	// pass ends.
	prefills := 0
	for _, r := range e.running.items() {
		if r.state == prefilling {
			prefills++
		}
	}
	marked := false
	var v *sched.View // nil: refill before the next pick
	idx := 0
	for budget > 0 && prefillLeft > 0 && e.waiting.len() > 0 && e.running.len() < e.cfg.MaxRunning &&
		prefills < e.cfg.MaxPrefills {
		if v == nil {
			idx, v = e.pickWaiting()
		}
		if v.Waiting[idx].Blocked {
			break
		}
		r := e.waiting.items()[idx]
		blocked, preempted := false, false
		for u := v.Usage; ; u = e.cfg.Manager.UsageTotals() {
			fits, feasible := e.admissionGate(r, u, v.Capacity)
			if fits {
				break
			}
			if !e.admPreempt || !feasible {
				blocked = true
				break
			}
			victim := e.victimFor(r.info())
			if victim == nil {
				blocked = true
				break
			}
			if victim.state == prefilling {
				prefills--
			}
			e.preempt(victim)
			preempted = true
			idx++ // preempt prepended the victim to the waiting queue
		}
		if blocked {
			e.waiting.block(idx)
			marked = true
			if preempted {
				v = nil
			} else {
				// Nothing changed since v was filled: ask again on it.
				idx = e.pickIn(v)
			}
			continue
		}
		v = nil
		prefills++
		e.waiting.remove(idx)
		chunk := e.schedulePrefill(r, min(budget, prefillLeft), now, &work)
		if chunk == 0 {
			// Could not reserve the first chunk: admission is
			// all-or-nothing, so drop any partial reservation (a
			// waiting request must hold no memory — it is invisible to
			// preemption) and stop admitting. The release preserves
			// cache: the claim may have attached previously cached (or
			// host-tier-restored) complete blocks, and destroying them
			// here would force the next admission attempt to restore
			// or recompute the identical content again. The run never
			// left its state, so its wait goes on, and it never joined
			// the running set: no scheduler call falls between the two.
			e.cfg.Manager.Release(&r.seq, true)
			r.rewind()
			e.waiting.pushFront(r)
			break
		}
		e.to(r, prefilling, e.clock)
		e.running.add(r, e.step)
		e.drainedTokens += int64(r.promptLen())
		budget -= chunk
		prefillLeft -= chunk
		committers = append(committers, r)
	}
	if marked {
		e.waiting.unblock()
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
	dt := e.cost.StepTime(work)
	if e.draftCost != nil {
		// The draft runs first: the step's prompt chunks go through it
		// as well, and it proposes for the verify batch in SpecK
		// sequential one-token passes. (A pass without tokens is free.)
		dw := gpu.StepWork{PrefillTokens: work.PrefillTokens, KernelEfficiency: work.KernelEfficiency}
		dt += e.draftCost.StepTime(dw)
		dw.PrefillTokens, dw.DecodeSeqs = 0, decodeBatch
		dt += SpecK * e.draftCost.StepTime(dw)
	}
	e.clock += dt
	e.busy += dt
	if decodeBatch > 0 {
		e.decodeSteps++
		e.decodeSum += int64(decodeBatch)
	}
	if e.cfg.SampleEvery > 0 {
		e.res.DecodeBatchTimeline = append(e.res.DecodeBatchTimeline, decodeBatch)
	}
	for _, r := range committers {
		e.cfg.Manager.Commit(&r.seq, r.pendingTarget, now)
		if r.state == prefilling {
			e.res.ComputedPromptTokens += int64(r.pendingTarget - r.computed)
			// Work below the run's high-water mark was computed once
			// already: recomputation, the waste swap preemption avoids.
			if rec := min(r.pendingTarget, r.everComputed) - r.computed; rec > 0 {
				e.res.RecomputedTokens += int64(rec)
			}
			r.commitTo(r.pendingTarget)
			if e.cfg.Vision == VisionFreeOnDemand && e.cfg.Manager.SupportsVisionCache() {
				e.cfg.Manager.DropImages(&r.seq, r.computed)
			}
			// After a preemption the recompute pass covers generated
			// tokens too, so completion is against the full sequence.
			if r.computed >= r.seq.Len() {
				// Prefill complete: first output token produced now.
				e.to(r, decoding, e.clock)
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
			r.commitTo(r.pendingTarget)
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
		if r.running() {
			// Committed: its work left, its phase, and no commit in
			// flight any more (no scheduler call remains in this step).
			in := e.running.of(r)
			in.Remaining, in.Phase, in.ScheduledNow = r.remaining(), r.phase(), false
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
	images := int(r.images)
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
			// Generated tokens are text, so image tokens are left to
			// prefill exactly when fewer than the prompt's are committed.
			if r.ctxImg < images {
				encoderTokens = images
			}
		}
	}

	start := max(r.computed, r.cachedHit)
	// Recompute passes after preemption cover generated tokens too.
	chunk := max(min(r.seq.Len()-start, budget), 0)
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
		r.commitTo(claimed)
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
	work.KVReadBytes += e.cfg.Spec.KVBytes(r.ctxText, r.ctxImg)
	if computeTokens == 0 {
		// Nothing to compute (full-prompt hit): commit advances state.
		return 1
	}
	return computeTokens
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
		in := e.running.of(r)
		in.Remaining = r.remaining() // the tokens phase 1 appended
		victim := e.victimFor(*in)
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
	if idx < 0 || idx >= e.running.len() {
		return nil
	}
	victim := e.running.items()[idx]
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
	return e.pickIn(v), v
}

// pickIn is pickWaiting on a view that is still up to date.
func (e *Engine) pickIn(v *sched.View) int {
	idx := e.scheduler.PickWaiting(v)
	if idx < 0 || idx >= e.waiting.len() {
		idx = 0
	}
	return idx
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

// policyView refreshes the reusable scheduler view's scalars — the
// clock and memory — in O(1) per call. Its Waiting and Running are the
// waiting queue's and the running set's own summaries, kept up to date
// as the queue and the runs change (waitQueue, runSet); a jengadebug
// build checks both against fresh ones here.
func (e *Engine) policyView() *sched.View {
	v := &e.schedView
	v.Clock = e.clock
	v.Step = e.step
	v.Usage = e.cfg.Manager.UsageTotals()
	v.Capacity = e.cfg.Manager.Capacity()
	if debug.On {
		e.waiting.mustMatch()
		e.running.mustMatch(e.step)
	}
	v.Waiting = e.waiting.infos()
	v.Running = e.running.infos()
	return v
}

// info summarizes r for the scheduler as a waiting request — the form
// the View's Waiting holds and an admission candidate is judged by.
// Everything it reads is fixed while r waits: the request header, the
// token count (no decode runs) and computed, which is zero from the
// moment r enters the queue, so the waiting queue keeps it from the push
// on.
func (r *run) info() sched.ReqInfo {
	return sched.ReqInfo{
		ID:        r.req.ID,
		Priority:  r.req.Priority,
		Arrival:   r.req.Arrival,
		Deadline:  r.req.Deadline,
		Group:     r.req.Group,
		PromptLen: r.promptLen(),
		OutputLen: r.req.OutputLen,
		Remaining: r.remaining(),
		Waiting:   true,
	}
}

// runningInfo summarizes a running r as of step: its info, its phase,
// and whether its commit is in flight (it was scheduled in step). The
// running set keeps it from admission on (runSet).
func (r *run) runningInfo(step int) sched.ReqInfo {
	info := r.info()
	info.Waiting = false
	info.Phase = r.phase()
	info.ScheduledNow = r.scheduledStep == step
	return info
}

// phase is r's phase in the scheduler's terms.
func (r *run) phase() sched.Phase {
	if r.state == decoding {
		return sched.PhaseDecode
	}
	return sched.PhasePrefill
}

// clampBudget bounds a scheduler-returned budget share to [0, total].
func clampBudget(share, total int) int { return min(max(share, 0), total) }

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
	e.to(victim, waiting, e.clock)
	victim.rewind()
	victim.preemptions++
	e.res.Preemptions++
	e.running.remove(victim)
	e.waiting.pushFront(victim)
	e.emit(EventPreempted, victim)
}

// handleStall resolves a step that scheduled nothing. Returns false if
// the simulation is irrecoverably stuck.
func (e *Engine) handleStall() bool {
	// Future arrivals: fast-forward.
	if e.running.len() == 0 && e.waiting.len() == 0 && e.pending.len() > 0 {
		e.clock = e.pending.front().req.Arrival
		e.globalStalls = 0
		return true
	}
	// A waiting request that cannot start even on an idle engine can
	// never run (the Ministral-on-L4 vLLM failure): fail it. The
	// candidate is the one admission actually tried — pickWaiting's
	// choice — not blindly waiting[0], or a stuck high-priority
	// request would sink every fitting request queued behind it.
	if e.running.len() == 0 && e.waiting.len() > 0 {
		idx, _ := e.pickWaiting()
		r := e.waiting.items()[idx]
		e.waiting.remove(idx)
		e.cfg.Manager.Release(&r.seq, false)
		e.retire(r, EventFailed)
		e.globalStalls = 0
		return true
	}
	if e.running.len() == 0 {
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
	for _, r := range e.running.items() {
		if worst == nil || r.seq.Len() > worst.seq.Len() {
			worst = r
		}
	}
	e.cfg.Manager.Release(&worst.seq, false)
	e.running.remove(worst)
	e.retire(worst, EventFailed)
	e.globalStalls = 0
	return true
}

// finishRun ends a run that produced its full output: its pages return
// to the evictable prefix cache.
func (e *Engine) finishRun(r *run) {
	e.cfg.Manager.Release(&r.seq, true)
	e.running.remove(r)
	e.retire(r, EventFinished)
}

// genToken produces the deterministic "generated" token for a decode
// step (content derived from request id and position so prefix caching
// across identical requests behaves consistently).
func (e *Engine) genToken(r *run) core.Token {
	pos := r.seq.Len()
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
