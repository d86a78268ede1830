package engine

import (
	"time"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// Live request migration: MigrateOut extracts a request from this
// engine — swapping its KV to the host tier so the fleet transfer
// path can carry the pages — and MigrateIn resumes it on another
// engine, re-entering through the ordinary re-admission path (prefix
// claim first, recompute only what neither the destination's tier nor
// a fleet fetch restored). The extracted state is exactly what
// preemption already preserves plus the request's metrics continuity:
// generated tokens (decode content is deterministic in (ID, position),
// so a resumed decode produces identical output), the recompute
// high-water mark, the first-token instant and the accumulated
// restore shares. The cluster layer owns policy — when to migrate,
// where to, and how to move the pages (internal/fleet).

// Migrated is one request's portable runtime state. It owns what it
// carries — the request header by value, the run's token slice, the
// borrow of the prompt that Submit began — and is moved, not copied:
// hand it to exactly one MigrateIn, which takes all three over, or drop
// it, and the prompt is left to the GC (no prompt sink hears of a
// request that retired nowhere).
type Migrated struct {
	// Req is the request header as the source engine held it (its own
	// copy: a fork may have labelled the Group). Req.Prompt is still the
	// submitter's array, read-only as ever.
	Req workload.Request
	// Tokens is the sequence content at extraction: prompt plus every
	// generated token. It is the extracted run's own slice — Req.Prompt
	// itself for a request that had not decoded yet (and for every
	// CrashOut record), the source engine's private buffer otherwise —
	// so holders may read it (to fetch the prefix's pages, say) but
	// must not write to it or keep it past MigrateIn.
	Tokens []core.Token
	// pooled marks Tokens as a private engine buffer whose ownership
	// travels with the record: MigrateIn adopts it and the destination
	// recycles it at the request's exit. Records built by hand leave it
	// false and their Tokens are only ever read.
	pooled bool
	// promptShared carries the run's flag: Req.Prompt is shared with a
	// fork root or branch, wherever those now live.
	promptShared bool
	// DecodesDone and EverComputed restore decode progress and the
	// recompute high-water mark (cross-replica recomputation still
	// counts as RecomputedTokens on the destination).
	DecodesDone  int
	EverComputed int
	// RestoredTokens, RestoredBytes and Preemptions carry the request's
	// host-tier restore share and preemption count so its record
	// survives the move.
	RestoredTokens int
	RestoredBytes  int64
	Preemptions    int
	// FirstToken is the TTFT instant if prefill completed (0 before);
	// Started marks that the request's arrival was processed.
	FirstToken time.Duration
	Started    bool
	// ForkDone marks an already-expanded fan-out root.
	ForkDone bool
}

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

// MigrationCandidates lists this engine's live requests in
// deterministic order — running first (schedule order), then waiting
// (queue order), then pending (arrival order) — so cluster rebalancing
// picks identically across runs.
func (e *Engine) MigrationCandidates() []MigrationCandidate {
	out := make([]MigrationCandidate, 0, len(e.running)+e.waiting.len()+e.pending.len())
	for i, q := range e.queues() {
		for _, r := range q {
			rem := max(len(r.seq.Tokens)-r.computed, 0) + max(r.req.OutputLen-1-r.decodesDone, 0)
			out = append(out, MigrationCandidate{ID: r.req.ID, Remaining: rem, Running: i == 0})
		}
	}
	return out
}

// MigrateOut extracts the request with the given ID, releasing its KV
// cache-preservingly — through the host tier's SwapOut when the
// manager has one, so the pages survive for a fleet transfer — and
// removing it from this engine without a terminal event (the request's
// stream continues on the destination; EventMigrated marks the
// hand-off point). Reports false for unknown IDs.
func (e *Engine) MigrateOut(id int64) (Migrated, bool) {
	r, started, running := e.detach(id)
	if r == nil {
		return Migrated{}, false
	}
	if running {
		if e.tier != nil {
			e.tier.SwapOut(&r.seq)
		} else {
			e.cfg.Manager.Release(&r.seq, true)
		}
	}
	e.res.MigratedOut++
	e.emit(EventMigrated, r)
	m := Migrated{
		Req:            r.req,
		Tokens:         r.seq.Tokens,
		pooled:         r.owned,
		promptShared:   r.promptShared,
		DecodesDone:    r.decodesDone,
		EverComputed:   r.everComputed,
		RestoredTokens: r.restoredTokens,
		RestoredBytes:  r.restoredBytes,
		Preemptions:    r.preemptions,
		FirstToken:     r.firstToken,
		Started:        started,
		ForkDone:       r.forkDone,
	}
	e.dropRun(r)
	return m, true
}

// MigrateIn resumes a migrated request on this engine. Started
// requests join the waiting queue directly (arrival was already
// processed on the source — admission is not re-run, mirroring how a
// preempted request never re-sheds) and re-enter through the prefill
// path: the first chunk's prefix claim restores whatever this
// replica's cache, its host tier or a prior fleet fetch holds, and
// only the remainder recomputes. Unstarted requests re-join the
// arrival queue. IDs must remain unique among this engine's live
// requests. The record is taken over: m.Req is copied into a pooled
// run; m.Tokens is not copied — a private buffer that came out of
// MigrateOut is adopted (and recycled here when the request leaves),
// anything else is borrowed read-only like a submitted prompt — and the
// prompt's borrow now ends at this engine's retire. The caller must not
// use m again.
//
//jenga:hotpath
func (e *Engine) MigrateIn(m Migrated) {
	toks := m.Tokens
	if !m.pooled {
		toks = borrowTokens(toks)
	}
	r := e.takeRun()
	*r = run{
		req:            m.Req,
		seq:            core.Sequence{ID: core.RequestID(m.Req.ID), PromptLen: len(m.Req.Prompt), Tokens: toks},
		owned:          m.pooled,
		promptShared:   m.promptShared,
		ph:             phasePrefill,
		decodesDone:    m.DecodesDone,
		everComputed:   m.EverComputed,
		restoredTokens: m.RestoredTokens,
		restoredBytes:  m.RestoredBytes,
		preemptions:    m.Preemptions,
		firstToken:     m.FirstToken,
		started:        m.Started,
		forkDone:       m.ForkDone,
	}
	e.res.MigratedIn++
	if !m.Started {
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
// survivors — recompute from the prompt; EverComputed is preserved so
// the survivor's recompute counts as RecomputedTokens, the crash's
// waste — or counted lost. Each record's Tokens is its request's
// prompt itself; generated tokens died with the process, and their
// buffers rejoin the free list. The caller owns wiping the manager
// (core.Crasher); CrashOut only empties the engine's queues.
func (e *Engine) CrashOut() []Migrated {
	out := make([]Migrated, 0, len(e.running)+e.waiting.len()+e.pending.len())
	for i, q := range e.queues() {
		for _, r := range q {
			e.returnTokens(r)
			out = append(out, Migrated{
				Req:            r.req,
				Tokens:         r.req.Prompt,
				promptShared:   r.promptShared,
				EverComputed:   r.everComputed,
				RestoredTokens: r.restoredTokens,
				RestoredBytes:  r.restoredBytes,
				Preemptions:    r.preemptions,
				FirstToken:     r.firstToken,
				Started:        i < 2, // running or waiting: arrival processed
				ForkDone:       r.forkDone,
			})
			e.dropRun(r)
		}
	}
	e.running = nil
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
