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

// forkIDBase offsets engine-generated branch IDs (auto fan-out) above
// every fan-out root's ID, and maxFanout is the most branches one root
// may declare. Branch i of root id is branchID(id, i), a function of the
// root alone: every engine a branch may be migrated or redispatched to
// mints the same ID for it, and a different one for every other root's
// branches. The IDs of all roots' branches lie in [forkIDBase+1,
// forkIDBase·(maxFanout+1)), far inside an int64.
const (
	forkIDBase = int64(1) << 40
	maxFanout  = 1 << 10
)

// branchID is the ID of branch i (1 ≤ i < maxFanout) of the fan-out
// root with ID root (0 ≤ root < forkIDBase).
func branchID(root int64, i int) int64 { return forkIDBase + root*maxFanout + int64(i) }

// checkFanout rejects a fan-out whose branches branchID cannot name.
func checkFanout(req *workload.Request) error {
	if req.Fanout < 0 || req.Fanout > maxFanout {
		return fmt.Errorf("engine: request %d has fan-out %d (want 0 to %d)", req.ID, req.Fanout, maxFanout)
	}
	if req.Fanout > 1 && (req.ID < 0 || req.ID >= forkIDBase) {
		return fmt.Errorf("engine: fan-out root %d has an ID outside [0, %d)", req.ID, forkIDBase)
	}
	return nil
}

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
	for _, r := range e.running.items() {
		if r.req.ID == parentID {
			parent = r
			break
		}
	}
	if parent == nil {
		return fmt.Errorf("engine: fork: request %d is not running", parentID)
	}
	if parent.state != decoding {
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
// running set. The child request shares the parent's prompt — its
// arrays and its filled buffer alike, read-only like every prompt the
// engine holds, and from here on returned to the pool by neither — and
// its sequence reads it as the parent's does; its run and its Out
// buffer come from the engine's free lists.
func (e *Engine) forkOne(parent *run, childID int64) error {
	if parent.req.Group == 0 {
		parent.req.Group = parent.req.ID
		e.running.of(parent).Group = parent.req.Group
	}
	// The child's generated tail starts as the parent's, up to the
	// divergence point: the one part of the parent's content it copies.
	out := append(e.takeTokens(parent.req.OutputLen-1), parent.seq.Out...)
	child := e.takeRun()
	*child = run{
		// The child starts exactly where the parent stands: everything
		// committed so far is shared, nothing needs recomputing. It has
		// no commit in flight (scheduledStep stays 0): a fork runs in the
		// commit loop or between steps, after the step's last scheduler
		// call, and the child is first scheduled in the next step.
		carried: carried{
			req: workload.Request{
				ID:        childID,
				Arrival:   e.clock,
				Group:     parent.req.Group,
				Shared:    parent.req.Shared,
				Prompt:    parent.req.Prompt,
				Own:       parent.req.Own,
				OutputLen: parent.req.OutputLen,
				Deadline:  parent.req.Deadline,
				Priority:  parent.req.Priority,
			},
			state:        decoding,
			decodesDone:  parent.decodesDone,
			everComputed: parent.everComputed,
			forkDone:     true, // children of a Fanout root never re-fork
			images:       parent.images,
		},
		seq:       core.Sequence{ID: core.RequestID(childID), PromptLen: parent.seq.PromptLen, Shared: parent.seq.Shared, Tokens: parent.seq.Tokens, Out: out},
		enteredAt: e.clock,
		computed:  parent.computed,
		cachedHit: parent.cachedHit,
		encoded:   parent.encoded,
		ctxText:   parent.ctxText,
		ctxImg:    parent.ctxImg,
	}
	if err := e.forker.Fork(&parent.seq, &child.seq, core.Tick(e.step)); err != nil {
		e.returnTokens(child)
		e.dropRun(child)
		return err
	}
	parent.promptShared, child.promptShared = true, true
	if child.ownsPrompt() {
		e.prompts.lent++
	}
	e.running.add(child, e.step)
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
		if err := e.forkOne(r, branchID(r.req.ID, i)); err != nil {
			return
		}
	}
}
