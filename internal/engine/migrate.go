package engine

import (
	"jenga/internal/core"
	"jenga/internal/workload"
)

// Live request migration: MigrateOut extracts a request from this
// engine — swapping its KV to the host tier so the fleet transfer
// path can carry the pages — and MigrateIn resumes it on another
// engine, re-entering through the ordinary re-admission path (prefix
// claim first, recompute only what neither the destination's tier nor
// a fleet fetch restored). The extracted state is the run's carried
// part, whole, plus its generated tokens (decode content is
// deterministic in (ID, position), so a resumed decode produces
// identical output) and everything the request's record reports. The
// cluster layer owns policy — when to migrate, where to, and how to move
// the pages (internal/fleet).

// Migrated is one request's portable runtime state. It owns what it
// carries — the request header by value, the run's prompt and Out
// buffers, the borrow of the prompt's arrays that Submit began — and is
// moved, not copied: hand it to exactly one MigrateIn, which takes it
// all over, or drop it, and the buffers are left to the GC.
type Migrated struct {
	// carried is the run's, as the source engine held it, with its open
	// interval closed at the source's clock: state is where the request
	// resumes — pending, waiting, or migrating for one taken out of the
	// running set — and MigrateIn reopens the interval at its own. Its
	// req is the source's own copy of the header (a fork may have
	// labelled the Group); req.Shared and req.Prompt are still the
	// submitter's arrays, read-only as ever.
	carried
	// prompt is the request's own part as the source engine filled it
	// at arrival, a buffer whose ownership travels with the record as
	// Out's does (nil for a request that had not arrived, and for
	// hand-built tokens, which are req.Prompt).
	prompt []core.Token
	// Out is the request's generated tokens at extraction, which follow
	// its prompt in the sequence: the source engine's Out
	// buffer, whose ownership travels with the record — MigrateIn adopts
	// it and the destination recycles it at the request's exit — or nil
	// for a request that had not decoded yet and for every CrashOut
	// record. Holders may read it (to fetch the prefix's pages, say) but
	// must not write to it or keep it past MigrateIn.
	Out []core.Token
}

// ID is the migrating request's ID.
func (m *Migrated) ID() int64 { return m.req.ID }

// Prompt is the migrating request's prompt: its header, whose Shared
// is the head and whose Prompt or Own the request's own part, and that
// part's tokens if the source engine filled them (nil otherwise: read
// them from the header, workload.Request.OwnTokens). Both are
// read-only.
func (m *Migrated) Prompt() (req *workload.Request, own []core.Token) { return &m.req, m.prompt }

// MigrationCandidate summarizes one live request for migration policy.
type MigrationCandidate struct {
	ID int64
	// Remaining is the unserved work: uncommitted tokens plus undone
	// output.
	Remaining int
	// Running marks actively scheduled requests (their KV moves with
	// them); waiting and pending requests hold no pages.
	Running bool
}

// MigrationCandidates appends this engine's live requests to dst in
// deterministic order — running first (schedule order), then waiting
// (queue order), then pending (arrival order) — so cluster rebalancing
// picks identically across runs. A caller that keeps dst across calls
// lists candidates without allocating.
func (e *Engine) MigrationCandidates(dst []MigrationCandidate) []MigrationCandidate {
	for _, q := range e.queues() {
		for _, r := range q {
			dst = append(dst, MigrationCandidate{ID: r.req.ID, Remaining: r.remaining(), Running: r.running()})
		}
	}
	return dst
}

// MigrateOut extracts the request with the given ID, releasing its KV
// cache-preservingly — through the host tier's SwapOut when the
// manager has one, so the pages survive for a fleet transfer — and
// removing it from this engine without a terminal event (the request's
// stream continues on the destination; EventMigrated marks the
// hand-off point). Reports false for unknown IDs.
func (e *Engine) MigrateOut(id int64) (Migrated, bool) {
	r := e.detach(id)
	if r == nil {
		return Migrated{}, false
	}
	if r.running() {
		if e.tier != nil {
			e.tier.SwapOut(&r.seq)
		} else {
			e.cfg.Manager.Release(&r.seq, true)
		}
	}
	m := e.record(r)
	e.res.MigratedOut++
	e.emit(EventMigrated, r)
	e.dropRun(r)
	return m, true
}

// record is r's portable state for a request leaving this engine. It
// closes r's open interval at this engine's clock — a run taken out of
// the running set moves to migrating, any other keeps its state — and
// takes what r carries whole.
func (e *Engine) record(r *run) Migrated {
	if r.running() {
		e.to(r, migrating, e.clock)
	} else {
		r.settle(e.clock)
	}
	if r.seq.Out != nil {
		e.tok.back++ // handed on with the record
	}
	m := Migrated{carried: r.carried, Out: r.seq.Out}
	if r.ownsPrompt() {
		e.prompts.back++
		m.prompt = r.seq.Tokens
	}
	return m
}

// MigrateIn resumes a migrated request on this engine. A request whose
// arrival was processed joins the waiting queue directly (admission is
// not re-run, mirroring how a preempted request never re-sheds) and
// re-enters through the prefill path: the first chunk's prefix claim
// restores whatever this replica's cache, its host tier or a prior
// fleet fetch holds, and only the remainder recomputes. A pending one
// re-joins the arrival queue. IDs must remain unique among this
// engine's live requests. The record is taken over: what it carries is
// copied into a pooled run, its prompt and Out buffers are adopted, not
// copied (and returned here when the request leaves), the prompt's
// arrays are borrowed read-only as Submit borrows them, and their
// borrow now ends at this engine's retire. The caller must not use m
// again.
//
//jenga:hotpath
func (e *Engine) MigrateIn(m Migrated) {
	if m.Out != nil {
		e.tok.lent++
	}
	if m.prompt != nil {
		e.prompts.lent++
	}
	r := e.takeRun()
	*r = run{
		carried:   m.carried,
		seq:       borrowPrompt(&m.req, m.prompt, m.Out),
		enteredAt: e.clock,
	}
	e.res.MigratedIn++
	if m.state == pending {
		e.enqueuePending(r)
		return
	}
	e.waiting.pushBack(r)
	e.emit(EventQueued, r)
}

// CrashOut simulates the replica process dying: every live request —
// running, waiting, pending, in that deterministic order — is
// extracted with its progress reset to the prompt, because its KV and
// generated state died with the device. Unlike MigrateOut nothing is
// swapped out (there is no process left to serialize pages) and no
// events are emitted (a crashed process emits nothing); the cluster
// decides whether the extracted requests are re-dispatched to
// survivors — recompute from the prompt; the rest of what the request
// carries is kept, so the survivor's recompute counts as
// RecomputedTokens, the crash's waste — or counted lost. What dies with
// the device is reset: each record's Out is nil (generated tokens died
// with the process, and their buffers rejoin the free list) and its
// decode progress is zero; a filled prompt travels with the record, as
// MigrateOut's does. The caller
// owns wiping the manager (core.Crasher); CrashOut only empties the
// engine's queues.
func (e *Engine) CrashOut() []Migrated {
	out := make([]Migrated, 0, e.running.len()+e.waiting.len()+e.pending.len())
	for _, q := range e.queues() {
		for _, r := range q {
			e.returnTokens(r) // generated tokens die with the process
			m := e.record(r)
			m.decodesDone = 0
			out = append(out, m)
			e.dropRun(r)
		}
	}
	e.running.reset()
	e.waiting.reset()
	e.pending.reset()
	e.pendingPeerBytes = 0
	return out
}

// Shed drops the live request with the given ID as if the admission
// policy had rejected it — the no-migration baseline for replica
// drain. Running requests release their KV cache-preservingly.
// Reports false for unknown IDs.
func (e *Engine) Shed(id int64) bool { return e.terminate(id, EventShed) }

// RecordPeerFetch accounts one fleet peer transfer into this engine:
// tokens is the prefix length the fetch added over the local lookup
// (0 for migration page moves), bytes the wire volume. The bytes are
// charged as peer-link DMA time on the engine's next executed step
// (gpu.StepWork.PeerBytes), exactly as tier transfers ride the PCIe
// term.
func (e *Engine) RecordPeerFetch(tokens int, bytes int64) {
	if tokens > 0 {
		e.res.PeerHits++
		e.res.PeerTokens += int64(tokens)
	}
	e.pendingPeerBytes += bytes
}
