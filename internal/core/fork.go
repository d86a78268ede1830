package core

import (
	"fmt"

	"jenga/internal/arena"
)

// Copy-on-write stream forking. Fork attaches a child sequence to a
// parent's committed KV by taking a reference on every page the parent
// holds — no allocation for the shared prefix, exactly PagedAttention's
// block-sharing trick for parallel sampling and beam search. Divergent
// writes privatize lazily: the first Reserve (or EncodeImages) that
// would write into a page still referenced by a sibling copies it
// first (cowPage), charging the copy to Stats and to the pending
// device-to-device byte counter the engine drains into its step cost.
// Mamba is the exception: the working state page is mutated in place
// every step, so the child gets an eager private copy at fork time;
// finalized checkpoints are immutable and shared like token blocks.

// Forker is the optional Manager capability behind copy-on-write
// stream forking. The engine type-asserts it: managers without it (the
// PagedAttention baselines) simply cannot fork, and fan-out degrades
// to independent requests.
type Forker interface {
	// Fork attaches child to parent's committed KV: child starts with
	// the same reserved/committed extent, sharing every page the
	// parent holds. The parent must be quiescent (no uncommitted
	// reservation) and the child ID must not be live. On error the
	// child holds nothing.
	Fork(parent, child *Sequence, now Tick) error
	// DrainCopyBytes returns and resets the device-to-device
	// copy-on-write byte volume accumulated since the previous drain.
	DrainCopyBytes() int64
}

var _ Forker = (*Jenga)(nil)

// cowPage privatizes one shared page for req: a fresh page is
// allocated, the original's content accounting (and raw bytes on
// backed arenas) is copied, and the original loses one reference —
// which cannot reach zero, because callers only privatize pages with
// ref > 1. The copy never owns the block's index entry (the original
// keeps it); if the copy completes under a different chain hash it
// publishes its own entry at commit like any private page.
func (m *Jenga) cowPage(g *group, id arena.SmallPageID, req RequestID) (arena.SmallPageID, error) {
	nid, err := m.forkCopyPage(g, id, req)
	if err != nil {
		return 0, err
	}
	old := &g.pages[id]
	check(old.ref > 1, "cowPage on unshared page %d", id)
	old.ref--
	g.extraRefs--
	return nid, nil
}

// Fork implements Forker. The shared prefix costs no new device
// memory (SharedBytes observes the savings); only Mamba working
// states and unfinalized checkpoint pages are copied eagerly, charged
// as CoW copy bytes like any privatization.
func (m *Jenga) Fork(parent, child *Sequence, now Tick) error {
	pr, ok := m.reqs[parent.ID]
	if !ok {
		return fmt.Errorf("core: fork: parent request %d unknown", parent.ID)
	}
	if pr.reserved != pr.committed {
		return fmt.Errorf("core: fork: parent %d has an uncommitted reservation (%d reserved, %d committed)",
			parent.ID, pr.reserved, pr.committed)
	}
	if _, dup := m.reqs[child.ID]; dup {
		return fmt.Errorf("core: fork: child request %d already live", child.ID)
	}
	// Registered first, so a mid-fork allocation failure can unwind
	// through the normal Release path.
	cr := m.takeReq(child.ID)
	cr.reserved = pr.reserved
	cr.committed = pr.committed
	cr.lastNow = now
	cr.claimed = true // the shared prefix stands in for a claim
	cr.cachedPrefix = pr.committed
	for gi, g := range m.groups {
		prg := &pr.g[gi]
		crg := &cr.g[gi]
		crg.projReserved = prg.projReserved
		crg.projCommitted = prg.projCommitted
		crg.demotedBlocks = prg.demotedBlocks
		crg.chain = prg.chain
		crg.runChain = prg.runChain
		crg.lastFullIdx = prg.lastFullIdx
		crg.projPrompt = prg.projPrompt
		crg.baseProj = prg.baseProj
		crg.nextCkpt = prg.nextCkpt
		crg.ckptDone = prg.ckptDone
		crg.visProj = prg.visProj
		crg.visCursor = prg.visCursor
		crg.visDropped = prg.visDropped
		crg.dropCursor = prg.dropCursor
		crg.dropProj = prg.dropProj
		// The child's tables are empty (a pristine state), so appending
		// the parent's copies them, into recycled arrays when there are any.
		crg.pages = append(crg.pages, prg.pages...)
		for b := range crg.pages {
			if crg.pages[b].held {
				m.pageAddRef(g, crg.pages[b].id)
			}
		}
		crg.visPages = append(crg.visPages, prg.visPages...)
		for b := range crg.visPages {
			if crg.visPages[b].held {
				m.pageAddRef(g, crg.visPages[b].id)
			}
		}
		if len(prg.ckpts) > 0 {
			crg.ckpts = append(crg.ckpts, prg.ckpts...)
			crg.ckptPos = append(crg.ckptPos, prg.ckptPos...)
			for i := range crg.ckpts {
				if !crg.ckpts[i].held {
					continue
				}
				if i < prg.ckptDone {
					// Finalized checkpoints are immutable: share them.
					m.pageAddRef(g, crg.ckpts[i].id)
					continue
				}
				// Unfinalized checkpoint pages will be written in place
				// when the boundary commits: the child needs its own.
				crg.ckpts[i].held = false
				nid, err := m.forkCopyPage(g, prg.ckpts[i].id, cr.id)
				if err != nil {
					// Entries beyond i are copies of the parent's refs the
					// child never took; drop them before unwinding.
					for j := i + 1; j < len(crg.ckpts); j++ {
						crg.ckpts[j].held = false
					}
					m.Release(child, false)
					return err
				}
				crg.ckpts[i] = pageRef{id: nid, held: true}
			}
		}
		if prg.hasWork {
			// The Mamba working state mutates every step — eager copy.
			nid, err := m.forkCopyPage(g, prg.work, cr.id)
			if err != nil {
				m.Release(child, false)
				return err
			}
			crg.work = nid
			crg.hasWork = true
		}
	}
	m.stats.Forks++
	return nil
}

// forkCopyPage gives req a private copy of a page the parent keeps —
// the eager-copy path for in-place-mutated Mamba state, charged like a
// CoW privatization but without dropping a reference (the parent's
// handle is unchanged; the child simply never shared).
func (m *Jenga) forkCopyPage(g *group, id arena.SmallPageID, req RequestID) (arena.SmallPageID, error) {
	nid, err := m.allocSmall(g, req)
	if err != nil {
		return 0, err
	}
	old := &g.pages[id]
	np := &g.pages[nid]
	np.filled = old.filled
	np.dead = old.dead
	np.hash = old.hash
	np.complete = old.complete
	np.priority = old.priority
	np.lastAccess = old.lastAccess
	g.filledSlots += int64(old.filled)
	g.deadSlots += int64(old.dead)
	if m.ar.Backed() {
		if src, err1 := g.view.SmallSlice(id); err1 == nil {
			if dst, err2 := g.view.SmallSlice(nid); err2 == nil {
				copy(dst, src)
			}
		}
	}
	bytes := int64(old.filled) * int64(g.slotUnit)
	m.stats.CowCopies++
	m.stats.CowCopyBytes += bytes
	m.pendingCopy += bytes
	return nid, nil
}

// DrainCopyBytes implements Forker.
func (m *Jenga) DrainCopyBytes() int64 {
	b := m.pendingCopy
	m.pendingCopy = 0
	return b
}
