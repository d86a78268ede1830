package engine

import (
	"fmt"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// Stream forking at the engine layer. Fork clones a running
// decode-phase request into children that share every committed KV
// page copy-on-write (core.Forker): the children enter the running set
// directly — they already hold their memory, so admission, MaxRunning
// and the prefix-cache claim path are all bypassed — and decode
// independently from the divergence point. Each child is a first-class
// request afterwards: it emits its own lifecycle events (EventQueued
// at fork, EventFirstToken at its first own token), can be cancelled
// or preempted on its own (a preempted child re-admits through the
// ordinary prefix-cache claim, recomputing only its divergent tail),
// and shares the parent's Group label so fair-share scheduling sees
// the whole fan-out as one tenant's siblings.

// forkIDBase offsets engine-generated branch IDs (auto fan-out) far
// above any workload-generated request ID.
const forkIDBase = int64(1) << 40

// Fork clones the running decode-phase request parentID into one new
// branch per child ID. Children share all committed KV copy-on-write,
// inherit the parent's prompt, output length, deadline and priority,
// arrive now, and carry the parent's Group label (assigning the
// parent's ID as the group when it had none, so schedulers see the
// fan-out as siblings). Fails without a core.Forker manager, for
// unknown or still-prefilling parents, and for child IDs already in
// use; on a mid-list failure the earlier children stand (best effort).
func (e *Engine) Fork(parentID int64, childIDs []int64) error {
	if e.forker == nil {
		return fmt.Errorf("engine: manager %T does not support forking", e.cfg.Manager)
	}
	var parent *run
	for _, r := range e.running {
		if r.req.ID == parentID {
			parent = r
			break
		}
	}
	if parent == nil {
		return fmt.Errorf("engine: fork: request %d is not running", parentID)
	}
	if parent.ph != phaseDecode {
		return fmt.Errorf("engine: fork: request %d is still prefilling", parentID)
	}
	for _, id := range childIDs {
		if err := e.forkOne(parent, id); err != nil {
			return err
		}
	}
	return nil
}

// forkOne clones parent into one child branch and enters it into the
// running set. The child request shares the parent's Prompt array
// (read-only, like every prompt the engine holds — and from here on
// handed back by neither); its run and its token buffer come from the
// engine's free lists.
func (e *Engine) forkOne(parent *run, childID int64) error {
	if parent.req.Group == 0 {
		parent.req.Group = parent.req.ID
	}
	// A child decodes from its first step, so it starts on a private
	// buffer holding the parent's content up to the divergence point.
	toks := append(e.takeTokens(len(parent.req.Prompt)+parent.req.OutputLen), parent.seq.Tokens...)
	child := e.takeRun()
	*child = run{
		req: workload.Request{
			ID:        childID,
			Arrival:   e.clock,
			Group:     parent.req.Group,
			Prompt:    parent.req.Prompt,
			OutputLen: parent.req.OutputLen,
			Deadline:  parent.req.Deadline,
			Priority:  parent.req.Priority,
		},
		seq:   core.Sequence{ID: core.RequestID(childID), PromptLen: parent.seq.PromptLen, Tokens: toks},
		owned: true,
		ph:    phaseDecode,
		// The child starts exactly where the parent stands: everything
		// committed so far is shared, nothing needs recomputing.
		computed:      parent.computed,
		cachedHit:     parent.cachedHit,
		decodesDone:   parent.decodesDone,
		encoded:       parent.encoded,
		scheduledStep: e.step, // not preemptible in the fork step
		ctxText:       parent.ctxText,
		ctxImg:        parent.ctxImg,
		everComputed:  parent.everComputed,
		alive:         true,
		started:       true,
		forkDone:      true, // children of a Fanout root never re-fork
	}
	if err := e.forker.Fork(&parent.seq, &child.seq, core.Tick(e.step)); err != nil {
		e.returnTokens(child)
		e.dropRun(child)
		return err
	}
	parent.promptShared, child.promptShared = true, true
	e.running = append(e.running, child)
	e.emit(EventQueued, child)
	return nil
}

// autoFork expands a Fanout request into its branches at the
// divergence point. Best effort: on a failed branch (no memory for the
// Mamba state copy, say) the branches created so far run and the rest
// are abandoned — the parent keeps decoding either way. Without a
// Forker manager the request simply runs single-stream.
func (e *Engine) autoFork(r *run) {
	r.forkDone = true
	if e.forker == nil {
		return
	}
	for i := 1; i < r.req.Fanout; i++ {
		e.forkSeq++
		if err := e.forkOne(r, forkIDBase+e.forkSeq); err != nil {
			return
		}
	}
}
