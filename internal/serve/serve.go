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
	"sync"
	"time"

	"jenga/internal/detmap"
	"jenga/internal/engine"
	"jenga/internal/metrics"
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
	// batching limits, admission and scheduling policy).
	Engine engine.Config
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

// StreamResult is a stream's terminal record: the engine's record of
// the request (engine.RequestMetrics) in the server's vocabulary. After
// an engine abort it carries only ID, State, Generated, Priority and Err.
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

	// Owned by the pump (under srv.mu) until done closes. generated
	// follows the token events (CancelAfter reads it between them);
	// everything else about how the request went arrives with its
	// record at the terminal instant.
	priority    int
	outputLen   int
	generated   int
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
//
//jenga:api a consumer that ignores Events waits for the outcome here
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
//
//jenga:api the loss a lagging consumer saw, which Events cannot report
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
		s.accept(cst.priority)
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
	// total rolls up every terminated stream's record; classes holds
	// one row per priority class with an accepted Submit.
	total   *engine.Rollup
	classes map[int]*class
	nextID  int64
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
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		streams: make(map[int64]*Stream),
		total:   engine.NewRollup(cfg.SLOTTFT, true),
		classes: make(map[int]*class),
		nextID:  1,
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	eng.SetRetireSink(s.handleRecord)
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
	if err := s.eng.Submit(&req); err != nil {
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
		priority:  req.Priority,
		outputLen: req.OutputLen,
	}
	s.streams[req.ID] = st
	s.accept(req.Priority)
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

// class is one priority class's share of the report.
type class struct {
	submitted int
	roll      *engine.Rollup
}

// accept counts one accepted stream (a Submit or a Fork branch).
func (s *Server) accept(priority int) {
	s.submitted++
	c := s.classes[priority]
	if c == nil {
		c = &class{roll: engine.NewRollup(s.cfg.SLOTTFT, true)}
		s.classes[priority] = c
	}
	c.submitted++
}

// streamStates maps the engine's terminal events onto stream states.
var streamStates = map[engine.EventType]StreamState{
	engine.EventFinished:  StateFinished,
	engine.EventFailed:    StateFailed,
	engine.EventShed:      StateShed,
	engine.EventCancelled: StateCancelled,
}

// handleRecord is the engine's retire sink: it turns a request's record
// into its stream's result and folds it into the report. The terminal
// event follows immediately (handleEvent) and closes the stream.
func (s *Server) handleRecord(m engine.RequestMetrics) {
	if st := s.streams[m.ID]; st != nil {
		s.record(st, &m, StreamResult{
			ID: m.ID, State: streamStates[m.State], Arrival: m.Arrival,
			TTFT: m.TTFT, E2E: m.E2E,
			Generated: m.Generated, Preemptions: m.Preemptions,
			DeadlineMet: m.DeadlineMet(), Priority: m.Priority,
		})
	}
}

// record stores a terminated stream's result and rolls its record up.
func (s *Server) record(st *Stream, m *engine.RequestMetrics, res StreamResult) {
	st.result = res
	s.total.Observe(m)
	s.classes[st.priority].roll.Observe(m)
}

// handleEvent routes one engine event to its stream. Called
// synchronously from StepOnce with s.mu held by the pump.
func (s *Server) handleEvent(ev engine.Event) {
	st := s.streams[ev.ID]
	if st == nil {
		return
	}
	if ev.Type == engine.EventFirstToken || ev.Type == engine.EventToken {
		st.generated = ev.Generated
		if st.cancelAfter > 0 && st.generated >= st.cancelAfter {
			s.pendingCancels = append(s.pendingCancels, st.id)
		}
	}
	if ev.Type.Terminal() {
		s.finalize(st, ev)
		return
	}
	select {
	case st.events <- ev:
	default:
		st.dropped++
	}
}

// finalize closes a stream whose result is recorded. done closes before
// events: a consumer that drains Events to its close and then asks for
// Result must find it, and Result is gated on done.
func (s *Server) finalize(st *Stream, ev engine.Event) {
	delete(s.streams, st.id)
	close(st.done)
	select {
	case st.events <- ev:
	default:
		st.dropped++
	}
	close(st.events)
}

// failAll terminates every live stream with err (engine abort): the
// engine will never retire them, so the server writes their records.
func (s *Server) failAll(err error) {
	for id, st := range s.streams {
		m := engine.RequestMetrics{ID: id, State: engine.EventFailed, Priority: st.priority}
		s.record(st, &m, StreamResult{ID: id, State: StateFailed, Generated: st.generated, Priority: st.priority, Err: err})
		s.finalize(st, engine.Event{Type: engine.EventFailed, ID: id})
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
//
//jenga:api the shutdown half of New: a server not drained to the end
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

// Report is the server-level serving scorecard: the engine's totals,
// the roll-up of every terminated stream's record, and what only the
// server knows.
type Report struct {
	// Totals are the wrapped engine's, with Finished, Failed, Shed and
	// Cancelled (and so ReqPerSec) counted over this server's
	// terminated streams.
	engine.Totals
	// Latency is the roll-up over those streams, SLOAttainment measured
	// against Config.SLOTTFT.
	engine.Latency
	// Submitted counts accepted Submit calls and Fork branches; Live is
	// how many have not terminated yet.
	Submitted, Live int
	// ShedRate is shed over submitted.
	ShedRate float64
	// MeanKVUtil and PeakKVUtil mirror the engine's.
	MeanKVUtil, PeakKVUtil float64
	// Migrations counts live requests migrated in plus out through
	// this server's engine (zero outside a fleet deployment).
	Migrations int
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
		Totals:     er.Totals,
		Submitted:  s.submitted,
		Live:       len(s.streams),
		MeanKVUtil: er.MeanKVUtil,
		PeakKVUtil: er.PeakKVUtil,
		Migrations: er.MigratedIn + er.MigratedOut,
	}
	r.Finished, r.Failed, r.Shed, r.Cancelled = s.total.Finished, s.total.Failed, s.total.Shed, s.total.Cancelled
	r.Rates()
	r.Latency = s.total.Latency(r.Duration)
	r.ShedRate = metrics.Fraction(r.Shed, s.submitted)
	for p, c := range detmap.Sorted(s.classes) {
		l := c.roll.Latency(r.Duration)
		r.PerPriority = append(r.PerPriority, PriorityReport{
			Priority:      p,
			Submitted:     c.submitted,
			Finished:      c.roll.Finished,
			Shed:          c.roll.Shed,
			P50TTFT:       l.P50TTFT,
			P99TTFT:       l.P99TTFT,
			Goodput:       l.Goodput,
			SLOAttainment: l.SLOAttainment,
			Preemptions:   c.roll.Preemptions,
		})
	}
	return r
}
