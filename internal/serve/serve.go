// Package serve is the online serving surface over the engine's
// event-driven streaming core: a Server wraps one engine replica and
// makes it safe for concurrent clients, each Submit returns a Stream
// whose channel carries that request's scheduler events (first token,
// per-token progress, preemptions) and whose Result records the
// terminal state and per-stream latencies.
//
// Layering and goroutine confinement: the engine itself stays
// single-threaded. The Server guards it with one mutex; a pump
// goroutine steps the simulation whenever live work exists, and
// Submit/Cancel/Report interleave between steps under the same lock.
// Engine events are dispatched to stream channels synchronously from
// the pump, so per-stream event order always matches scheduler order:
// queued → first_token → token* (interleaved with preempted) → exactly
// one terminal event, after which the channel closes.
//
// Backpressure has two stages. At submit time, a bounded queue
// (MaxQueue) rejects with ErrQueueFull — the caller's signal to slow
// down. At arrival time, the engine's AdmissionPolicy (configured on
// the wrapped engine.Config) sheds by estimated KV demand versus live
// usage or by SLO estimates; shed streams terminate with StateShed.
// Slow event consumers never block the scheduler: channel sends are
// non-blocking, dropped progress events are counted on the stream, and
// the terminal state is always available from Result after the channel
// closes.
//
//jenga:concurrent the server is the concurrency boundary: pump goroutine, stream channels, and the mutex/cond that confine the engine
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"jenga/internal/engine"
	"jenga/internal/metrics"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// maxEventBuffer caps a stream's event-channel allocation: outputs up
// to this length never drop progress events even if the consumer only
// reads after termination; longer streams fall back to the documented
// drop-and-count rule for events beyond the consumer's lag.
const maxEventBuffer = 1024

// ErrQueueFull is returned by Submit when the server's bounded queue
// is at capacity — backpressure, not failure; retry after draining.
var ErrQueueFull = errors.New("serve: submission queue full")

// ErrClosed is returned by Submit after Drain or Close.
var ErrClosed = errors.New("serve: server closed")

// Config configures a Server.
type Config struct {
	// Engine configures the wrapped replica (spec, device, manager,
	// batching limits, admission policy).
	Engine engine.Config
	// Scheduler, when set, overrides Engine.Scheduler: the scheduling
	// policy (admission order, preemption victims, prefill/decode
	// budget) the wrapped replica runs. Nil falls back to
	// Engine.Scheduler, and from there to the FCFS default.
	Scheduler sched.Scheduler
	// MaxQueue bounds the not-yet-scheduled requests (pending plus
	// waiting) a Submit may join; beyond it Submit returns
	// ErrQueueFull. 0 means unbounded.
	MaxQueue int
	// SLOTTFT is the time-to-first-token target Report measures
	// SLO attainment against (0: attainment over per-request
	// deadlines instead).
	SLOTTFT time.Duration
}

// StreamState is a stream's terminal state.
type StreamState int

const (
	// StateActive: the stream has not terminated yet.
	StateActive StreamState = iota
	// StateFinished: the full output was generated.
	StateFinished
	// StateFailed: the request could never run (context exceeds
	// capacity) or the engine aborted.
	StateFailed
	// StateShed: the admission policy dropped the request at arrival.
	StateShed
	// StateCancelled: the stream was cancelled (Cancel or context).
	StateCancelled
)

// String names the state.
func (s StreamState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateFinished:
		return "finished"
	case StateFailed:
		return "failed"
	case StateShed:
		return "shed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("StreamState(%d)", int(s))
	}
}

// StreamResult is a stream's terminal record.
type StreamResult struct {
	// ID is the request ID.
	ID int64
	// State is the terminal state.
	State StreamState
	// Arrival is the simulated arrival instant.
	Arrival time.Duration
	// TTFT and E2E are the stream's latencies (TTFT zero when no first
	// token was produced, E2E measured to the terminal event).
	TTFT, E2E time.Duration
	// Generated is the number of output tokens produced.
	Generated int
	// Preemptions counts recompute-preemptions the stream suffered.
	Preemptions int
	// DeadlineMet reports whether the stream finished within its
	// request's Deadline (true when no deadline was set and the stream
	// finished).
	DeadlineMet bool
	// Priority echoes the request's scheduling class; Report groups
	// its per-priority breakdown by it.
	Priority int
	// Err carries the engine error when State is StateFailed because
	// the simulation aborted.
	Err error
}

// Stream is the per-request handle Submit returns.
type Stream struct {
	id  int64
	srv *Server

	events chan engine.Event
	done   chan struct{}

	// Owned by the pump (under srv.mu) until done closes.
	arrival     time.Duration
	deadline    time.Duration
	priority    int
	outputLen   int
	firstToken  time.Duration
	generated   int
	preemptions int
	dropped     int
	cancelAfter int
	result      StreamResult
}

// ID returns the request ID the stream serves.
func (st *Stream) ID() int64 { return st.id }

// Events returns the stream's event channel. It closes after the
// terminal event. Sends never block the scheduler: progress events
// are dropped (and counted) when the consumer lags behind the buffer,
// so treat the channel as a progress feed and read the authoritative
// outcome from Result.
func (st *Stream) Events() <-chan engine.Event { return st.events }

// Done returns a channel closed when the stream terminates.
func (st *Stream) Done() <-chan struct{} { return st.done }

// Result returns the terminal record; ok is false while the stream is
// still active.
func (st *Stream) Result() (StreamResult, bool) {
	select {
	case <-st.done:
		return st.result, true
	default:
		return StreamResult{}, false
	}
}

// Dropped returns the number of progress events dropped because the
// consumer lagged (terminal state is never dropped).
func (st *Stream) Dropped() int {
	st.srv.mu.Lock()
	defer st.srv.mu.Unlock()
	return st.dropped
}

// Cancel terminates the stream mid-generation, releasing all KV it
// holds (fully committed pages return to the prefix cache). A no-op
// after the stream terminates.
func (st *Stream) Cancel() {
	st.srv.mu.Lock()
	defer st.srv.mu.Unlock()
	select {
	case <-st.done:
	default:
		st.srv.eng.Cancel(st.id)
	}
}

// CancelAfter cancels the stream deterministically once n output
// tokens exist: the scheduler applies the cancellation at the step
// boundary right after the n-th token, regardless of how fast the
// consumer drains events — server-side token-budget enforcement. If n
// tokens were already generated, cancellation is applied before the
// next step.
func (st *Stream) CancelAfter(n int) {
	if n < 1 {
		n = 1
	}
	s := st.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-st.done:
		return
	default:
	}
	st.cancelAfter = n
	if st.generated >= n {
		s.pendingCancels = append(s.pendingCancels, st.id)
	}
	s.cond.Broadcast()
}

// Fork splits the stream into n additional branches that share all KV
// computed so far copy-on-write and decode independently from this
// point — parallel sampling, beam-search expansion or agentic fan-out
// over one prefix without recomputing or duplicating it. Each returned
// Stream is a first-class handle: it emits its own events, counts in
// Report, and can be cancelled or forked again on its own. The parent
// keeps streaming unaffected.
//
// The stream must be actively decoding (past its first token) on a
// manager with the core.Forker capability. Fork is best effort: on a
// mid-fan-out failure the branches created so far are returned
// alongside the error and remain live.
func (st *Stream) Fork(n int) ([]*Stream, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: fork: branch count %d", n)
	}
	s := st.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case <-st.done:
		return nil, fmt.Errorf("serve: fork: stream %d already terminated", st.id)
	default:
	}
	buf := st.outputLen + 8
	if buf > maxEventBuffer {
		buf = maxEventBuffer
	}
	streams := make([]*Stream, 0, n)
	for i := 0; i < n; i++ {
		id := s.nextID
		s.nextID++
		cst := &Stream{
			id:        id,
			srv:       s,
			events:    make(chan engine.Event, buf),
			done:      make(chan struct{}),
			arrival:   s.eng.Clock(),
			deadline:  st.deadline,
			priority:  st.priority,
			outputLen: st.outputLen,
		}
		// Register before forking: the engine emits the child's queued
		// event synchronously from Fork.
		s.streams[id] = cst
		if err := s.eng.Fork(st.id, []int64{id}); err != nil {
			delete(s.streams, id)
			return streams, err
		}
		s.submitted++
		s.submittedByPrio[cst.priority]++
		streams = append(streams, cst)
	}
	s.cond.Signal()
	return streams, nil
}

// Wait blocks until the stream terminates or the context expires.
func (st *Stream) Wait(ctx context.Context) (StreamResult, error) {
	select {
	case <-st.done:
		return st.result, nil
	case <-ctx.Done():
		return StreamResult{}, ctx.Err()
	}
}

// Server is the concurrent online serving surface over one engine
// replica. All methods are safe for concurrent use.
type Server struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	eng     *engine.Engine
	streams map[int64]*Stream
	records []StreamResult
	// submittedByPrio counts accepted Submits per priority class for
	// the Report breakdown.
	submittedByPrio map[int]int
	nextID          int64
	// pendingCancels are CancelAfter hits applied at the next step
	// boundary (the engine sink must not re-enter the engine).
	pendingCancels []int64

	submitted int
	closed    bool
	paused    bool
	runErr    error

	done chan struct{}
}

// New builds a Server and starts its pump goroutine. The server owns
// the engine built from cfg.Engine; callers interact only through the
// Server.
func New(cfg Config) (*Server, error) {
	if cfg.Scheduler != nil {
		cfg.Engine.Scheduler = cfg.Scheduler
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:             cfg,
		eng:             eng,
		streams:         make(map[int64]*Stream),
		submittedByPrio: make(map[int]int),
		nextID:          1,
		done:            make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	eng.SetEventSink(s.handleEvent)
	go s.pump()
	return s, nil
}

// Submit enqueues one request for online serving and returns its
// Stream. The request's Arrival is stamped to the server's current
// simulated clock when it lies in the past; an ID of 0 is assigned
// automatically; duplicate live IDs are rejected. The context governs
// the stream's lifetime: when it expires before the stream terminates,
// the stream is cancelled and its KV released.
func (s *Server) Submit(ctx context.Context, req workload.Request) (*Stream, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	snap := s.eng.SnapshotTotals() // queue depths and clock only
	if s.cfg.MaxQueue > 0 && snap.Pending+snap.Waiting >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	if req.ID == 0 {
		req.ID = s.nextID
	}
	if _, dup := s.streams[req.ID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: request ID %d already live", req.ID)
	}
	if req.Arrival < snap.Clock {
		req.Arrival = snap.Clock
	}
	r := req // escapes: the engine retains the pointer
	if err := s.eng.Submit(&r); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if req.ID >= s.nextID {
		s.nextID = req.ID + 1
	}
	// Buffer the full output when small so an after-the-fact consumer
	// drops nothing, but cap the allocation: beyond the cap the
	// documented drop-and-count backpressure rule applies.
	buf := req.OutputLen + 8
	if buf > maxEventBuffer {
		buf = maxEventBuffer
	}
	st := &Stream{
		id:        req.ID,
		srv:       s,
		events:    make(chan engine.Event, buf),
		done:      make(chan struct{}),
		arrival:   req.Arrival,
		deadline:  req.Deadline,
		priority:  req.Priority,
		outputLen: req.OutputLen,
	}
	s.streams[req.ID] = st
	s.submitted++
	s.submittedByPrio[req.Priority]++
	s.cond.Signal()
	s.mu.Unlock()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				st.Cancel()
			case <-st.done:
			}
		}()
	}
	return st, nil
}

// pump steps the engine whenever live work exists. It holds the lock
// across each step and releases it between steps so submissions and
// cancellations interleave at step boundaries.
func (s *Server) pump() {
	defer close(s.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && (s.paused || !s.eng.Live()) {
			s.cond.Wait()
		}
		if s.closed && !s.eng.Live() {
			s.eng.FinishSampling()
			return
		}
		if len(s.pendingCancels) > 0 {
			for _, id := range s.pendingCancels {
				s.eng.Cancel(id)
			}
			s.pendingCancels = s.pendingCancels[:0]
			continue // re-check liveness before stepping
		}
		if err := s.eng.StepOnce(); err != nil {
			s.runErr = err
			s.closed = true // no pump survives an engine abort; Submit must refuse
			s.failAll(err)
			return
		}
		// Yield the lock AND the processor so Submit/Cancel get a turn
		// between steps: with the hot-path work per step now far below
		// a scheduler quantum, a bare unlock/lock pair would let the
		// pump re-acquire the mutex for thousands of steps before a
		// blocked caller ever runs (GOMAXPROCS=1 ping-pong).
		s.mu.Unlock()
		runtime.Gosched()
		s.mu.Lock()
	}
}

// handleEvent routes one engine event to its stream. Called
// synchronously from StepOnce with s.mu held by the pump.
func (s *Server) handleEvent(ev engine.Event) {
	st := s.streams[ev.ID]
	if st == nil {
		return
	}
	switch ev.Type {
	case engine.EventFirstToken:
		st.firstToken = ev.Clock
		st.generated = ev.Generated
	case engine.EventToken:
		st.generated = ev.Generated
	case engine.EventPreempted:
		st.preemptions++
	}
	if (ev.Type == engine.EventFirstToken || ev.Type == engine.EventToken) &&
		st.cancelAfter > 0 && st.generated >= st.cancelAfter {
		s.pendingCancels = append(s.pendingCancels, st.id)
	}
	if !ev.Type.Terminal() {
		select {
		case st.events <- ev:
		default:
			st.dropped++
		}
		return
	}
	res := StreamResult{
		ID:          st.id,
		Arrival:     st.arrival,
		Generated:   st.generated,
		Preemptions: st.preemptions,
		Priority:    st.priority,
	}
	// Cancelling a request still ahead of its simulated arrival emits
	// the terminal event before st.arrival; a lifetime cannot be
	// negative.
	if ev.Clock > st.arrival {
		res.E2E = ev.Clock - st.arrival
	}
	if st.firstToken > 0 {
		res.TTFT = st.firstToken - st.arrival
	}
	switch ev.Type {
	case engine.EventFinished:
		res.State = StateFinished
		res.DeadlineMet = st.deadline == 0 || res.E2E <= st.deadline
	case engine.EventFailed:
		res.State = StateFailed
	case engine.EventShed:
		res.State = StateShed
	case engine.EventCancelled:
		res.State = StateCancelled
	}
	s.finalize(st, ev, res)
}

// finalize records a terminal result and closes the stream. done
// closes before events: a consumer that drains Events to its close and
// then asks for Result must find it, and Result is gated on done.
func (s *Server) finalize(st *Stream, ev engine.Event, res StreamResult) {
	st.result = res
	s.records = append(s.records, res)
	delete(s.streams, st.id)
	close(st.done)
	select {
	case st.events <- ev:
	default:
		st.dropped++
	}
	close(st.events)
}

// failAll terminates every live stream with err (engine abort).
func (s *Server) failAll(err error) {
	for id, st := range s.streams {
		res := StreamResult{
			ID: id, State: StateFailed, Arrival: st.arrival,
			Generated: st.generated, Preemptions: st.preemptions,
			Priority: st.priority, Err: err,
		}
		s.finalize(st, engine.Event{Type: engine.EventFailed, ID: id}, res)
	}
}

// Pause suspends stepping after the in-flight step completes;
// submissions still queue. With Resume it brackets a deterministic
// burst: pause, submit a full workload, resume — the engine then sees
// exactly the submission set the batch driver would.
func (s *Server) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume restarts stepping after Pause.
func (s *Server) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain stops accepting submissions, serves everything already
// admitted to completion, and returns the engine error if the
// simulation aborted.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.closed = true
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Close stops accepting submissions and cancels every live stream,
// releasing their KV, then waits for the pump to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.paused = false
	for id := range s.streams {
		s.eng.Cancel(id)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Snapshot returns the live scheduler state (queue depths, memory
// usage) — what admission policies and cluster routers decide on.
func (s *Server) Snapshot() engine.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Snapshot()
}

// EngineResult returns the wrapped engine's aggregate metrics over
// every terminated request so far (the same structure Engine.Run
// returns at drain time).
func (s *Server) EngineResult() *engine.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.ResultSnapshot()
}

// Report is the server-level serving scorecard.
type Report struct {
	// Submitted counts accepted Submit calls; Finished, Failed, Shed
	// and Cancelled partition the terminated ones; Live is the rest.
	Submitted, Finished, Failed, Shed, Cancelled, Live int
	// Duration is the simulated clock at report time.
	Duration time.Duration
	// ReqPerSec is finished requests per simulated second.
	ReqPerSec float64
	// Goodput is deadline-meeting finishes per simulated second (equal
	// to ReqPerSec when no deadlines are set).
	Goodput float64
	// SLOAttainment is the fraction of finished streams with TTFT at
	// or under the configured SLOTTFT (with no target: the fraction
	// meeting their own deadlines).
	SLOAttainment float64
	// ShedRate is shed over submitted.
	ShedRate float64
	// P50TTFT/P99TTFT/P50E2E/P99E2E are per-stream latency
	// percentiles over finished streams.
	P50TTFT, P99TTFT, P50E2E, P99E2E time.Duration
	// HitRate, MeanKVUtil, PeakKVUtil and Preemptions mirror the
	// engine's aggregates.
	HitRate                float64
	MeanKVUtil, PeakKVUtil float64
	Preemptions            int
	// GeneratedTokens counts decode-produced tokens.
	GeneratedTokens int64
	// TierHitRate is the host-tier share of all prefill work (tokens
	// restored over PCIe instead of recomputed); RestoredTokens is
	// its numerator and SwapOuts/SwapIns the page/block transfer
	// counts — all zero without a tiered manager. RecomputedTokens is
	// the engine-level recompute waste (prompt work computed more
	// than once for the same request); it accumulates with or without
	// a tier, and the tier's job is to drive it toward zero.
	TierHitRate       float64
	RestoredTokens    int64
	RecomputedTokens  int64
	SwapOuts, SwapIns int64
	// PeerHits/PeerTokens/PeerBytes mirror the engine's fleet-store
	// accounting (peer-tier prefix fetches and their wire volume);
	// Migrations counts live requests migrated in plus out through
	// this server's engine. All zero outside a fleet deployment.
	PeerHits   int
	PeerTokens int64
	PeerBytes  int64
	Migrations int
	// P99Restore is the p99 per-request PCIe restore time over
	// finished streams — what a spilled-prefix hit costs at the tail.
	P99Restore time.Duration
	// PerPriority breaks the scorecard down by scheduling class,
	// ascending by priority — how a Priority scheduler trades
	// low-class latency for high-class SLO attainment. Every class
	// with an accepted Submit gets a row (a class whose streams are
	// all still live shows Submitted with zero terminated); empty
	// when nothing was submitted.
	PerPriority []PriorityReport
}

// PriorityReport is one priority class's share of the serving
// scorecard.
type PriorityReport struct {
	// Priority is the class (workload.Request.Priority).
	Priority int
	// Submitted counts accepted Submits in the class; Finished and
	// Shed partition its terminated streams (failed and cancelled
	// make up the remainder).
	Submitted, Finished, Shed int
	// P50TTFT and P99TTFT are latency percentiles over the class's
	// finished streams.
	P50TTFT, P99TTFT time.Duration
	// Goodput is the class's deadline-meeting finishes per simulated
	// second.
	Goodput float64
	// SLOAttainment is the fraction of the class's finished streams
	// with TTFT at or under the configured SLOTTFT (with no target:
	// the fraction meeting their own deadlines).
	SLOAttainment float64
	// Preemptions counts recompute-preemptions the class's terminated
	// streams suffered.
	Preemptions int
}

// Report assembles the scorecard over every stream terminated so far.
func (s *Server) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	er := s.eng.ResultSnapshot()
	r := Report{
		Submitted:        s.submitted,
		Live:             len(s.streams),
		Duration:         s.eng.Clock(),
		HitRate:          er.HitRate,
		MeanKVUtil:       er.MeanKVUtil,
		PeakKVUtil:       er.PeakKVUtil,
		Preemptions:      er.Preemptions,
		GeneratedTokens:  er.GeneratedTokens,
		TierHitRate:      er.TierHitRate,
		RestoredTokens:   er.RestoredTokens,
		RecomputedTokens: er.RecomputedTokens,
		SwapOuts:         er.SwapOuts,
		SwapIns:          er.SwapIns,
		PeerHits:         er.PeerHits,
		PeerTokens:       er.PeerTokens,
		PeerBytes:        er.PeerBytes,
		Migrations:       er.MigratedIn + er.MigratedOut,
	}
	if len(er.PerRequest) > 0 {
		restores := make([]time.Duration, 0, len(er.PerRequest))
		for _, rm := range er.PerRequest {
			restores = append(restores, rm.RestoreTime)
		}
		r.P99Restore = metrics.Percentile(restores, 99)
	}
	// perPrio accumulates the per-class breakdown alongside the
	// aggregate pass.
	type prioAcc struct {
		finished, shed, good, preempt int
		ttfts                         []time.Duration
	}
	perPrio := make(map[int]*prioAcc)
	acc := func(p int) *prioAcc {
		a := perPrio[p]
		if a == nil {
			a = &prioAcc{}
			perPrio[p] = a
		}
		return a
	}
	var ttfts, e2es []time.Duration
	goodFinishes := 0
	for _, rec := range s.records {
		a := acc(rec.Priority)
		a.preempt += rec.Preemptions
		switch rec.State {
		case StateFinished:
			r.Finished++
			a.finished++
			ttfts = append(ttfts, rec.TTFT)
			e2es = append(e2es, rec.E2E)
			a.ttfts = append(a.ttfts, rec.TTFT)
			if rec.DeadlineMet {
				goodFinishes++
				a.good++
			}
		case StateFailed:
			r.Failed++
		case StateShed:
			r.Shed++
			a.shed++
		case StateCancelled:
			r.Cancelled++
		}
	}
	if r.Duration > 0 {
		r.ReqPerSec = float64(r.Finished) / r.Duration.Seconds()
	}
	r.Goodput = metrics.Goodput(goodFinishes, r.Duration)
	r.ShedRate = metrics.Fraction(r.Shed, s.submitted)
	if s.cfg.SLOTTFT > 0 {
		r.SLOAttainment = metrics.Attainment(ttfts, s.cfg.SLOTTFT)
	} else {
		r.SLOAttainment = metrics.Fraction(goodFinishes, r.Finished)
	}
	tq := metrics.Percentiles(ttfts, 50, 99)
	eq := metrics.Percentiles(e2es, 50, 99)
	r.P50TTFT, r.P99TTFT = tq[0], tq[1]
	r.P50E2E, r.P99E2E = eq[0], eq[1]
	// Every class with an accepted Submit gets a row, including
	// classes whose streams are all still live (zero terminated).
	prios := make([]int, 0, len(perPrio)+len(s.submittedByPrio))
	for p := range perPrio {
		prios = append(prios, p)
	}
	for p := range s.submittedByPrio {
		if _, ok := perPrio[p]; !ok {
			prios = append(prios, p)
		}
	}
	sort.Ints(prios)
	for _, p := range prios {
		a := perPrio[p]
		if a == nil {
			a = &prioAcc{}
		}
		pq := metrics.Percentiles(a.ttfts, 50, 99)
		pr := PriorityReport{
			Priority:    p,
			Submitted:   s.submittedByPrio[p],
			Finished:    a.finished,
			Shed:        a.shed,
			P50TTFT:     pq[0],
			P99TTFT:     pq[1],
			Goodput:     metrics.Goodput(a.good, r.Duration),
			Preemptions: a.preempt,
		}
		if s.cfg.SLOTTFT > 0 {
			pr.SLOAttainment = metrics.Attainment(a.ttfts, s.cfg.SLOTTFT)
		} else {
			pr.SLOAttainment = metrics.Fraction(a.good, a.finished)
		}
		r.PerPriority = append(r.PerPriority, pr)
	}
	return r
}
