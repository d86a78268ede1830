package engine

import (
	"fmt"
	"sort"
	"time"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// This file is the engine's event-driven streaming core: the push-event
// API (Submit / Cancel / StepOnce / events) that online serving layers
// drive directly. Engine.Run is a thin batch driver over it — submit
// everything, step until drained — so batch and online serving share
// one scheduler with identical deterministic behavior.
//
// The core stays goroutine-confined: Submit, Cancel, StepOnce and
// Snapshot must all be called from the goroutine (or under the lock)
// that owns the engine. internal/serve wraps one engine in a
// mutex-guarded Server for concurrent online use.

// EventType classifies a scheduler event.
type EventType int

const (
	// EventQueued: the request's arrival time was reached and admission
	// accepted it into the waiting queue.
	EventQueued EventType = iota
	// EventFirstToken: prefill completed and the first output token
	// exists (the TTFT instant). Emitted once per request — a recompute
	// pass after preemption does not re-emit it.
	EventFirstToken
	// EventToken: one decode step produced one output token.
	EventToken
	// EventPreempted: the request lost its KV to a higher-priority (or
	// earlier-arrived) request and was requeued for recompute.
	EventPreempted
	// EventFinished: the request produced its full output (terminal).
	EventFinished
	// EventFailed: the request can never run (its context exceeds
	// capacity on an idle engine) and was dropped (terminal).
	EventFailed
	// EventShed: the admission policy rejected the request at its
	// arrival instant (terminal).
	EventShed
	// EventCancelled: Cancel released the request's KV mid-flight
	// (terminal).
	EventCancelled
	// EventMigrated: the request was extracted for live migration to
	// another replica. Not terminal — the request's stream continues
	// on the destination engine, which re-emits EventQueued there and
	// eventually the terminal event.
	EventMigrated
)

// String names the event type for logs and traces.
func (t EventType) String() string {
	switch t {
	case EventQueued:
		return "queued"
	case EventFirstToken:
		return "first_token"
	case EventToken:
		return "token"
	case EventPreempted:
		return "preempted"
	case EventFinished:
		return "finished"
	case EventFailed:
		return "failed"
	case EventShed:
		return "shed"
	case EventCancelled:
		return "cancelled"
	case EventMigrated:
		return "migrated"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Terminal reports whether the event ends its request's lifecycle.
func (t EventType) Terminal() bool {
	switch t {
	case EventFinished, EventFailed, EventShed, EventCancelled:
		return true
	}
	return false
}

// Event is one scheduler occurrence for one request. Events for a
// given request are emitted in lifecycle order: EventQueued, then
// EventFirstToken, then EventToken (once per decode), interleaved with
// EventPreempted, and exactly one terminal event last. Events are
// emitted synchronously from StepOnce on the engine's goroutine.
type Event struct {
	// Type classifies the event.
	Type EventType
	// ID is the request's ID.
	ID int64
	// Step is the scheduler step that produced the event.
	Step int
	// Clock is the simulated time of the event.
	Clock time.Duration
	// Generated is the number of output tokens produced so far
	// (includes the first token).
	Generated int
}

// Snapshot is the live scheduler state online layers (admission,
// routers, autoscalers) decide on.
type Snapshot struct {
	// Clock and Step are the simulation position.
	Clock time.Duration
	Step  int
	// Pending, Waiting and Running are queue depths: not yet arrived,
	// arrived but not scheduled, and actively scheduled.
	Pending, Waiting, Running int
	// OutstandingTokens is the admitted-but-unserved work: remaining
	// prompt plus remaining output tokens over every live request.
	OutstandingTokens int64
	// Usage is the manager's live memory accounting.
	Usage core.Usage
	// Capacity is the manager's total KV bytes.
	Capacity int64
}

// AdmissionState is the live state an AdmissionPolicy decides on when
// a request's arrival time is reached.
type AdmissionState struct {
	// Clock and Step are the simulation position.
	Clock time.Duration
	Step  int
	// Usage and Capacity are the manager's live memory accounting.
	// Usage carries aggregate totals only (PerGroup is nil): policies
	// run once per arrival and must not cost a map allocation each.
	Usage    core.Usage
	Capacity int64
	// Queued and Running are the current queue depths.
	Queued, Running int
	// Footprint is the manager's steady-state KV demand estimate for
	// the candidate request.
	Footprint int64
	// EstTTFT is a first-order queueing estimate of the candidate's
	// time to first token: the prompt tokens queued ahead of it (plus
	// its own) over the rate this replica has drained its queue at —
	// prompt tokens admitted per simulated second of executed steps
	// since the last reset, capped at the device's compute roofline,
	// and the roofline itself before anything has been admitted.
	EstTTFT time.Duration
	// QueuePos is the position the candidate would take in the
	// scheduler's admission order: the number of waiting requests the
	// configured scheduling policy would admit ahead of it (0 = next).
	// Under FCFS this is the queue depth; a priority policy ranks a
	// high-priority arrival ahead of a deep low-priority backlog, so
	// SLO-style policies can shed on effective rather than nominal
	// queue position.
	QueuePos int
}

// AdmissionDecision is an AdmissionPolicy verdict.
type AdmissionDecision int

const (
	// Admit queues the request for scheduling.
	Admit AdmissionDecision = iota
	// Shed drops the request now (terminal EventShed) rather than
	// letting it miss its SLO or thrash memory.
	Shed
)

// AdmissionPolicy decides, at each request's arrival instant, whether
// the engine queues or sheds it. Policies see live memory usage and
// queue state; a nil policy admits everything (the pre-streaming
// behavior). Decide is called on the engine goroutine and must not
// retain state.
type AdmissionPolicy interface {
	// Name identifies the policy in results and flags.
	Name() string
	// Decide returns the verdict for req given the live state.
	Decide(req *workload.Request, s AdmissionState) AdmissionDecision
}

// SetEventSink installs fn as the engine's event callback. fn is
// invoked synchronously during StepOnce/Cancel; it must not call back
// into the engine. A nil fn disables emission (the default).
func (e *Engine) SetEventSink(fn func(Event)) { e.onEvent = fn }

// emit sends one event for r to the sink, if installed.
func (e *Engine) emit(t EventType, r *run) {
	if e.onEvent == nil {
		return
	}
	gen := 0
	if r.firstToken > 0 {
		gen = 1 + r.decodesDone
	}
	e.onEvent(Event{Type: t, ID: r.req.ID, Step: e.step, Clock: e.clock, Generated: gen})
}

// Reset returns the scheduler to a clean state for a new online
// session. As with Run, the manager keeps its prefix cache, so a reset
// server models a warmed-up replica.
func (e *Engine) Reset() { e.reset() }

// Live reports whether any submitted request has not yet reached a
// terminal state.
func (e *Engine) Live() bool {
	return e.pending.len()+e.waiting.len()+e.running.len() > 0
}

// Clock returns the current simulated time.
func (e *Engine) Clock() time.Duration { return e.clock }

// Snapshot returns the live scheduler state with full memory
// accounting (Usage includes the PerGroup breakdown).
func (e *Engine) Snapshot() Snapshot {
	s := e.snapshot(e.cfg.Manager.Usage())
	return s
}

// SnapshotTotals is Snapshot with aggregate-only memory accounting
// (Usage.PerGroup is nil) — the allocation-light form per-arrival hot
// paths such as online cluster routing read.
//
//jenga:hotpath
func (e *Engine) SnapshotTotals() Snapshot {
	return e.snapshot(e.cfg.Manager.UsageTotals())
}

//jenga:hotpath
func (e *Engine) snapshot(u core.Usage) Snapshot {
	s := Snapshot{
		Clock:    e.clock,
		Step:     e.step,
		Pending:  e.pending.len(),
		Waiting:  e.waiting.len(),
		Running:  e.running.len(),
		Usage:    u,
		Capacity: e.cfg.Manager.Capacity(),
	}
	for _, r := range e.pending.items() {
		s.OutstandingTokens += int64(r.promptLen() + r.req.OutputLen)
	}
	for _, r := range e.waiting.items() {
		s.OutstandingTokens += int64(r.promptLen() + r.req.OutputLen)
	}
	for _, r := range e.running.items() {
		s.OutstandingTokens += int64(r.remaining())
	}
	return s
}

// Submit enqueues one request into the streaming core. The request
// joins the arrival queue at req.Arrival (which may be in the
// simulated past — it is then admitted on the next step). The engine
// copies the request header into a pooled run and keeps no pointer to
// req: the caller may reuse or drop it as soon as Submit returns, and
// the engine's own bookkeeping (a fork labelling its root's Group) is
// written to the copy. The prompt's arrays, req.Shared and a hand-built
// req.Prompt, are the one thing borrowed: the engine reads them in
// place, never writes to them (no copy is made: Submit costs the same
// for an 8k-token prompt as for a 64-token one), and needs them
// unchanged until the request leaves — through its terminal event, or
// inside the record MigrateOut or CrashOut returns. A recipe (req.Own)
// is copied with the header and filled at the request's arrival into a
// buffer of the engine's own. IDs must be unique among live requests. A fan-out root (Fanout > 1) must have
// an ID in [0, 2⁴⁰) and at most 1024 branches, the range its branch IDs
// are derived over; anything else is an error.
//
//jenga:hotpath
func (e *Engine) Submit(req *workload.Request) error {
	if req.OutputLen < 1 {
		//jenga:alloc-ok invalid-request error path
		return fmt.Errorf("engine: request %d has output length %d", req.ID, req.OutputLen)
	}
	if err := checkFanout(req); err != nil {
		return err
	}
	r := e.takeRun()
	*r = run{
		carried:   carried{req: *req, state: pending},
		seq:       borrowPrompt(req, nil, nil),
		enteredAt: e.clock,
	}
	if e.cfg.Spec.Vision != nil {
		r.images = int32(req.PromptImages())
	}
	e.enqueuePending(r)
	return nil
}

// enqueuePending inserts r into the arrival queue: stable by arrival,
// after existing entries with arrival ≤ r's, so submission order breaks
// ties exactly like the batch driver's stable sort.
//
//jenga:hotpath
func (e *Engine) enqueuePending(r *run) {
	pending := e.pending.items()
	//jenga:alloc-ok the closure does not outlive sort.Search, so it stays on the stack
	e.pending.insert(sort.Search(len(pending), func(i int) bool { return pending[i].req.Arrival > r.req.Arrival }), r)
}

// detach removes the live request with the given ID from whichever
// queue holds it (nil for an unknown ID), leaving its state as it was.
// A pending or waiting request holds no pages (admission is
// all-or-nothing) and is released here, so that the manager forgets what
// a lookup, an admission probe or a fleet fetch at dispatch showed it;
// only a run detached from the running set (r.running()) still has KV
// for its caller to release, swap out or hand over.
func (e *Engine) detach(id int64) *run {
	for i, r := range e.pending.items() {
		if r.req.ID == id {
			e.pending.remove(i)
			e.cfg.Manager.Release(&r.seq, false)
			return r
		}
	}
	for i, r := range e.waiting.items() {
		if r.req.ID == id {
			e.waiting.remove(i)
			e.cfg.Manager.Release(&r.seq, false)
			return r
		}
	}
	for _, r := range e.running.items() {
		if r.req.ID == id {
			e.running.remove(r)
			return r
		}
	}
	return nil
}

// terminate ends the live request with the given ID with terminal event
// ev, wherever it is in the lifecycle. A running request's fully
// committed pages return to the evictable prefix cache (exactly as on
// normal completion), everything else to the free pool. Reports
// whether the ID was live.
func (e *Engine) terminate(id int64, ev EventType) bool {
	r := e.detach(id)
	if r == nil {
		return false
	}
	if r.running() {
		e.cfg.Manager.Release(&r.seq, true)
	}
	e.retire(r, ev)
	return true
}

// Cancel terminates the request with the given ID wherever it is in
// the lifecycle, releasing all KV it holds; cancellation never corrupts
// the prefix cache. Reports whether the ID was live.
func (e *Engine) Cancel(id int64) bool { return e.terminate(id, EventCancelled) }

// StepOnce advances the simulation by one scheduler step: admit
// arrivals (shedding per the admission policy), schedule and execute
// one batch, advance the clock, emit events. Callers must check Live
// first; stepping an empty engine is an error.
//
//jenga:hotpath
func (e *Engine) StepOnce() error {
	e.step++
	if e.step > e.cfg.MaxSteps {
		//jenga:alloc-ok stuck-engine error path terminates the run; never taken on the measured steady state
		return fmt.Errorf("engine: exceeded %d steps (stuck?)", e.cfg.MaxSteps)
	}
	e.admitArrivals()
	if e.running.len() == 0 && e.waiting.len() == 0 && e.pending.len() > 0 {
		e.clock = e.pending.front().req.Arrival
		e.admitArrivals()
	}
	progressed := e.runStep()
	switch {
	case progressed:
		e.globalStalls = 0
	case !e.Live():
		// Everything drained mid-step (the admission policy shed the
		// last arrivals): not a stall.
		e.globalStalls = 0
	default:
		e.globalStalls++
		if !e.handleStall() {
			//jenga:alloc-ok deadlock error path terminates the run; never taken on the measured steady state
			return fmt.Errorf("engine: no progress possible at step %d", e.step)
		}
	}
	if e.cfg.SampleEvery > 0 && e.step%e.cfg.SampleEvery == 0 {
		e.res.MemTimeline = append(e.res.MemTimeline, MemSample{Step: e.step, Clock: e.clock, Usage: e.cfg.Manager.Usage()})
	}
	if e.step%kvUtilEvery == 0 {
		e.sampleKVUtil()
	}
	e.recycleRuns()
	return nil
}

// AdvanceTo steps the simulation until the clock reaches t or no
// schedulable work remains before t; an idle engine jumps straight to
// t. Online drivers use it to align replicas to an arrival instant
// before routing against their live state.
func (e *Engine) AdvanceTo(t time.Duration) error {
	for e.Live() && e.clock < t {
		if e.running.len() == 0 && e.waiting.len() == 0 && e.pending.front().req.Arrival > t {
			break
		}
		if err := e.StepOnce(); err != nil {
			return err
		}
	}
	if e.clock < t {
		e.clock = t
	}
	return nil
}

// Drain steps the simulation until every live request terminates,
// then closes out KV-utilization sampling. The counterpart of Run's
// main loop for online sessions.
func (e *Engine) Drain() error {
	for e.Live() {
		if err := e.StepOnce(); err != nil {
			return err
		}
	}
	e.finishSampling()
	e.recycleRuns() // runs extracted (MigrateOut, CrashOut) since the last step
	e.checkHandBack("drain")
	return nil
}

// FinishSampling takes the drain-time closing KV-utilization sample.
// Idempotent per step; drivers that step the core themselves (instead
// of calling Drain) call it once the last request terminates, so their
// MeanKVUtil matches the batch driver's exactly.
func (e *Engine) FinishSampling() { e.finishSampling() }

// ResultSnapshot assembles the metrics accumulated so far — for online
// sessions, the aggregate over every terminated request at this
// instant. Batch Run returns the same structure at drain time.
func (e *Engine) ResultSnapshot() *Result { return e.result() }

// admissionState builds the policy input for candidate r. Usage comes
// from UsageTotals: policies decide on aggregates, and arrival-time
// admission must not allocate a PerGroup map per candidate.
func (e *Engine) admissionState(r *run) AdmissionState {
	s := AdmissionState{
		Clock:     e.clock,
		Step:      e.step,
		Usage:     e.cfg.Manager.UsageTotals(),
		Capacity:  e.cfg.Manager.Capacity(),
		Queued:    e.waiting.len(),
		Running:   e.running.len(),
		Footprint: e.cfg.Manager.Footprint(&r.seq),
		QueuePos:  e.scheduler.RankWaiting(r.info(), e.policyView()),
	}
	if rate := e.drainRate(); rate > 0 {
		ahead := int64(r.promptLen())
		for _, w := range e.waiting.items() {
			ahead += int64(w.promptLen())
		}
		for _, c := range e.running.items() {
			if rem := c.seq.Len() - c.computed; rem > 0 {
				ahead += int64(rem)
			}
		}
		s.EstTTFT = time.Duration(float64(ahead) / rate * float64(time.Second))
	}
	return s
}
