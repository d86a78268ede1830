package core

import (
	"fmt"
	"slices"

	"jenga/internal/arena"
	"jenga/internal/debug"
)

// CheckInvariants verifies the manager's page-indexed structures against
// the page array they describe, and returns the first violation. These
// are the first two slices of the whole-manager check (ROADMAP item 1):
// the request-associated free stacks, the prefix index, the slotted
// eviction heaps and the request-state slab; then page conservation,
// reference counts against the live page tables — what the admission
// probe's "in use" means — and the block-hash records. Every Release
// and CrashReset ends with it in a jengadebug build; the differential
// fuzzers and the tests' audit call it in every build. It costs
// O(pages + live page tables) and allocates only to report, and once
// for its reference-count scratch.
func (m *Jenga) CheckInvariants() error {
	for _, g := range m.groups {
		if err := m.checkPages(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := m.checkStacks(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := g.index.check(); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := g.evict.check(); err != nil {
			return fmt.Errorf("core: group %s small-page queue: %w", g.spec.Name, err)
		}
	}
	if err := m.largeEvict.check(); err != nil {
		return fmt.Errorf("core: large-page queue: %w", err)
	}
	if m.host != nil {
		if err := m.host.evict.check(); err != nil {
			return fmt.Errorf("core: host-tier queue: %w", err)
		}
	}
	if got := len(m.spareReqs) + len(m.reqs); got != m.reqsBuilt {
		return fmt.Errorf("core: %d parked + %d live request states, %d handed out by the slab",
			len(m.spareReqs), len(m.reqs), m.reqsBuilt)
	}
	return m.checkHashes()
}

// checkPages: the group's counters agree with the pages' states, used,
// cached and empty pages are all there is, and each large page's
// counters with its pages; a page is referenced iff it is used, and by
// exactly the live page tables that hold it — a request's blocks,
// checkpoints, embeddings and working state.
func (m *Jenga) checkPages(g *group) error {
	refs := slices.Grow(m.checkRefs[:0], len(g.pages))[:len(g.pages)]
	clear(refs)
	m.checkRefs = refs
	//jenga:order-ok references are summed per page; visit order cannot change a sum
	for _, r := range m.reqs {
		rg := &r.g[g.idx]
		for _, table := range [3][]pageRef{rg.pages, rg.ckpts, rg.visPages} {
			for _, ref := range table {
				if ref.held {
					refs[ref.id]++
				}
			}
		}
		if rg.hasWork {
			refs[rg.work]++
		}
	}
	var used, cached, empty int
	var extra int64
	for L := range m.largeOwner {
		first, n := g.view.SmallRange(arena.LargePageID(L))
		owned := m.largeOwner[L] == int32(g.idx)
		var lUsed, lCached int32
		for id := first; id < first+arena.SmallPageID(n); id++ {
			pg := &g.pages[id]
			switch pg.status {
			case pageUsed:
				lUsed++
				extra += int64(pg.ref) - 1
			case pageCached:
				lCached++
			case pageEmpty:
				empty++
			default:
				return fmt.Errorf("page %d has status %d", id, pg.status)
			}
			if (pg.ref >= 1) != (pg.status == pageUsed) || pg.ref != refs[id] {
				return fmt.Errorf("page %d (status %d) counts %d references, %d live page tables hold it", id, pg.status, pg.ref, refs[id])
			}
		}
		if !owned && lUsed+lCached > 0 {
			return fmt.Errorf("large page %d is not the group's, yet %d of its pages are used and %d cached", L, lUsed, lCached)
		}
		if owned && (lUsed != m.cntUsed[L] || lCached != m.cntCached[L]) {
			return fmt.Errorf("large page %d counts %d used, %d cached pages; it has %d and %d", L, m.cntUsed[L], m.cntCached[L], lUsed, lCached)
		}
		used, cached = used+int(lUsed), cached+int(lCached)
	}
	if used != g.nUsed || cached != g.nCached || used+cached+empty != len(g.pages) || extra != g.extraRefs {
		return fmt.Errorf("%d used (%d extra references), %d cached, %d empty of %d pages; the group counts %d used (%d extra), %d cached",
			used, extra, cached, empty, len(g.pages), g.nUsed, g.extraRefs, g.nCached)
	}
	return nil
}

// checkHashes: parked plus live block-hash records are the records the
// slab handed out; a live record holds one hash per whole stride of
// what it folded in, a parked one nothing — and in a jengadebug build
// only scribble.
func (m *Jenga) checkHashes() error {
	parked := 0
	for sh := m.spareHashes; sh != nil; sh = sh.next {
		if parked++; parked > m.hashRecsBuilt {
			return fmt.Errorf("core: the parked block-hash records form a cycle")
		}
		for ci := range sh.c {
			ch := &sh.c[ci]
			if sh.n != 0 || ch.proj != 0 || len(ch.hashes) != 0 {
				return fmt.Errorf("core: a parked block-hash record still holds %d tokens, %d hashes of class %d", sh.n, len(ch.hashes), ci)
			}
			if debug.On && slices.ContainsFunc(ch.hashes[:cap(ch.hashes)], func(h uint64) bool { return h != hashPoison }) {
				return fmt.Errorf("core: a parked block-hash record's class-%d array is not scribbled", ci)
			}
		}
	}
	if got := parked + len(m.hashes); got != m.hashRecsBuilt {
		return fmt.Errorf("core: %d parked + %d live block-hash records, %d handed out by the slab", parked, len(m.hashes), m.hashRecsBuilt)
	}
	//jenga:order-ok each record is judged on its own; visit order only decides which violation is reported
	for id, sh := range m.hashes {
		for ci, c := range m.hashClasses {
			if ch := &sh.c[ci]; ch.proj > sh.n || len(ch.hashes) != ch.proj/c.stride {
				return fmt.Errorf("core: request %d: %d hashes of class %d for %d of %d tokens", id, len(ch.hashes), ci, ch.proj, sh.n)
			}
		}
	}
	return nil
}

// checkStacks: every stack is reachable from its top with mutually
// consistent links, holds only pages that are empty, free, in a large
// page the group owns and associated with the stack's request, and the
// stacks together hold exactly the linked pages — so no page is on two,
// and no map entry names an empty stack. The converse (every such page
// is linked) holds only until its request's Release drops the stack,
// and never for the page a carve hands straight to its caller.
func (m *Jenga) checkStacks(g *group) error {
	linked := 0
	for id := range g.pages {
		pg := &g.pages[id]
		if pg.aprev != offStack {
			linked++
		} else if pg.anext != noPage {
			return fmt.Errorf("page %d is off every stack but links to %d", id, pg.anext)
		}
	}
	if !m.cfg.RequestAware && (linked > 0 || len(g.assocTop) > 0) {
		return fmt.Errorf("%d linked pages, %d stacks without request-aware placement", linked, len(g.assocTop))
	}
	walked := 0
	//jenga:order-ok each stack is judged on its own pages; visit order only decides which violation is reported
	for req, top := range g.assocTop {
		above := noPage
		for id := int32(top); id != noPage; id = g.pages[id].anext {
			if id < 0 || int(id) >= len(g.pages) {
				return fmt.Errorf("request %d's stack links to page %d of %d", req, id, len(g.pages))
			}
			pg := &g.pages[id]
			sid := arena.SmallPageID(id)
			switch {
			case pg.aprev != above:
				return fmt.Errorf("request %d's stack: page %d has %d above it, reached from %d", req, id, pg.aprev, above)
			case pg.status != pageEmpty || pg.assoc != req:
				return fmt.Errorf("request %d's stack holds page %d (status %d, associated with %d)", req, id, pg.status, pg.assoc)
			case !g.free.has(sid) || m.largeOwner[g.view.LargeOf(sid)] != int32(g.idx):
				return fmt.Errorf("request %d's stack holds page %d, which is not free in a large page of the group", req, id)
			}
			if walked++; walked > linked {
				return fmt.Errorf("stacks hold more than the %d linked pages (a cycle, or a page on two)", linked)
			}
			above = id
		}
	}
	if walked != linked {
		return fmt.Errorf("%d pages linked, %d reachable from a stack top", linked, walked)
	}
	return nil
}

// check: the table holds exactly the hashed pages, none of them empty,
// each found under its own hash at its own ID.
func (ix *pageIndex) check() error {
	hashed := 0
	for id := range ix.pages {
		pg := &ix.pages[id]
		if !pg.hashed {
			continue
		}
		hashed++
		if pg.status == pageEmpty {
			return fmt.Errorf("empty page %d still owns index entry %x", id, pg.hash)
		}
		if got, ok := ix.get(pg.hash); !ok || int(got) != id {
			return fmt.Errorf("hashed page %d: index lookup of %x finds page %d (%v)", id, pg.hash, got, ok)
		}
	}
	occupied := 0
	for _, s := range ix.slots {
		if s != 0 {
			occupied++
		}
	}
	if hashed != ix.n || occupied != ix.n {
		return fmt.Errorf("index counts %d entries, %d slots occupied, %d pages hashed", ix.n, occupied, hashed)
	}
	return nil
}

// check: heap order holds, and for a slotted queue pos and h describe
// the same set of at most len(pos) entries, in an array no larger.
func (q *evictQueue[E]) check() error {
	for i := 1; i < len(q.h); i++ {
		if q.h[i].before(q.h[(i-1)/2]) {
			return fmt.Errorf("heap order broken at %d", i)
		}
	}
	if q.pos == nil {
		return nil
	}
	if cap(q.h) > len(q.pos) {
		return fmt.Errorf("array of %d entries for %d slots", cap(q.h), len(q.pos))
	}
	for i, e := range q.h {
		if got := q.pos[q.slot(e)]; int(got) != i+1 {
			return fmt.Errorf("pos[%d] = %d, entry sits at %d", q.slot(e), got, i)
		}
	}
	queued := 0
	for _, p := range q.pos {
		if p != 0 {
			queued++
		}
	}
	if queued != len(q.h) {
		return fmt.Errorf("%d slots marked queued, %d entries", queued, len(q.h))
	}
	return nil
}

// mustHold panics on a violated invariant; the jengadebug build calls
// it where a violation would otherwise surface much later.
func (m *Jenga) mustHold() {
	if err := m.CheckInvariants(); err != nil {
		panic(err)
	}
}
