package core

import (
	"fmt"
	"slices"

	"jenga/internal/arena"
	"jenga/internal/debug"
	"jenga/internal/model"
)

// CheckInvariants verifies the manager's page-indexed structures against
// the page array they describe, and returns the first violation: the
// request-associated free stacks, the prefix index, the slotted
// eviction heaps, the free large pages; page conservation and
// reference counts against the live page tables — what the admission
// probe's "in use" means; the
// LCM tiling of each group's pages and the eviction orders §5.4 reads —
// every evictable large page queued, and every cached page queued where
// its group is evicted from; the host tier (checkHost); the request
// states — parked + live = handed out by the slab, a parked one empty
// (checkParked) — and the live ones' block-hash records, with the held
// pages' hashes against them. Every Release and CrashReset ends with it
// in a jengadebug build; the differential fuzzers and the tests' audit
// call it in every build. It costs O(pages + request states) and
// allocates only to report, and once for its reference-count scratch.
func (m *Jenga) CheckInvariants() error {
	for _, g := range m.groups {
		if err := m.checkLCM(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := m.checkPages(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := m.checkStacks(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := checkPrefixIndex(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
		if err := m.checkQueued(g); err != nil {
			return fmt.Errorf("core: group %s: %w", g.spec.Name, err)
		}
	}
	if err := m.largeEvict.check(); err != nil {
		return fmt.Errorf("core: large-page queue: %w", err)
	}
	for L := range m.large {
		if lp := &m.large[L]; lp.owner >= 0 && lp.used == 0 && lp.cached > 0 && m.largeEvict.pos[L] == 0 {
			return fmt.Errorf("core: large page %d of group %s is evictable (%d cached pages, none used) but not queued",
				L, m.groups[lp.owner].spec.Name, lp.cached)
		}
	}
	if err := m.checkFreeLarge(); err != nil {
		return fmt.Errorf("core: free large pages: %w", err)
	}
	if m.host != nil {
		if err := m.checkHost(); err != nil {
			return fmt.Errorf("core: host tier: %w", err)
		}
	}
	if got := len(m.spareReqs) + len(m.reqs); got != m.reqsBuilt {
		return fmt.Errorf("core: %d parked + %d live request states, %d handed out by the slab",
			len(m.spareReqs), len(m.reqs), m.reqsBuilt)
	}
	for _, r := range m.spareReqs {
		if err := r.checkParked(); err != nil {
			return fmt.Errorf("core: a parked request state %w", err)
		}
	}
	return m.checkHashes()
}

// checkParked: a parked state holds no page — no working state and
// nothing in its tables' arrays — its tables are empty and start at
// entry 0, and so is its block-hash record (checkEmpty).
func (r *reqState) checkParked() error {
	for gi := range r.g {
		if err := r.g[gi].checkParked(gi); err != nil {
			return err
		}
	}
	return r.h.checkEmpty()
}

// checkParked is reqState.checkParked for the state of group gi.
func (rg *reqGroup) checkParked(gi int) error {
	if rg.work.held() || slices.ContainsFunc(rg.table[:cap(rg.table)], func(ref pageRef) bool { return ref != (pageRef{}) }) {
		return fmt.Errorf("still references a page of group %d", gi)
	}
	if len(rg.table) != 0 || rg.base != 0 {
		return fmt.Errorf("has a table of %d entries for group %d, from entry %d", len(rg.table), gi, rg.base)
	}
	return nil
}

// checkEmpty: an empty record — a parked state's or a spare memo's —
// names no memo and holds no token, hash or run key, and a jengadebug
// build has scribbled its arrays.
func (sh *seqHashes) checkEmpty() error {
	if sh.head != nil {
		return fmt.Errorf("still names the memo of a %d-token head", sh.head.key.n)
	}
	for ci := range sh.c {
		ch := &sh.c[ci]
		if runs := len(ch.headRuns) + len(ch.runs); sh.n != 0 || ch.proj != 0 || ch.blocks() != 0 || runs != 0 {
			return fmt.Errorf("still holds %d tokens, %d hashes and %d run keys of class %d", sh.n, ch.blocks(), runs, ci)
		}
		if debug.On && !ch.scribbled() {
			return fmt.Errorf("has class-%d hash arrays that are not scribbled", ci)
		}
	}
	return nil
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
		for _, ref := range rg.table {
			if ref.held() {
				refs[ref.id()]++
			}
		}
		if rg.work.held() {
			refs[rg.work.id()]++
		}
	}
	var used, cached, empty int
	var extra int64
	for L := range m.large {
		first, n := g.view.SmallRange(arena.LargePageID(L))
		lp := &m.large[L]
		owned := lp.owner == int8(g.idx)
		var lUsed, lCached int
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
		if owned && (lUsed != int(lp.used) || lCached != int(lp.cached)) {
			return fmt.Errorf("large page %d counts %d used, %d cached pages; it has %d and %d", L, lp.used, lp.cached, lUsed, lCached)
		}
		used, cached = used+lUsed, cached+lCached
	}
	if used != g.nUsed || cached != g.nCached || used+cached+empty != len(g.pages) || extra != g.extraRefs {
		return fmt.Errorf("%d used (%d extra references), %d cached, %d empty of %d pages; the group counts %d used (%d extra), %d cached",
			used, extra, cached, empty, len(g.pages), g.nUsed, g.extraRefs, g.nCached)
	}
	return nil
}

// checkLCM: the group's small pages tile the LCM large page exactly —
// ratio of them, smallBytes each — and every large page the group owns
// maps to ratio small pages of the group's array that start at the
// large page's first byte and end inside it.
func (m *Jenga) checkLCM(g *group) error {
	large := m.geo.LargePageBytes
	if g.smallBytes*g.ratio != large || g.view.Ratio() != g.ratio || g.view.SmallPageBytes() != g.smallBytes {
		return fmt.Errorf("%d small pages of %d bytes (its view: %d of %d) for a %d-byte large page",
			g.ratio, g.smallBytes, g.view.Ratio(), g.view.SmallPageBytes(), large)
	}
	for L := range m.large {
		if m.large[L].owner != int8(g.idx) {
			continue
		}
		first, n := g.view.SmallRange(arena.LargePageID(L))
		last := first + arena.SmallPageID(n-1)
		if off, _ := g.view.ByteRange(first); n != g.ratio || int(last) >= len(g.pages) ||
			off != int64(L)*int64(large) || g.view.LargeOf(first) != arena.LargePageID(L) || g.view.LargeOf(last) != arena.LargePageID(L) {
			return fmt.Errorf("large page %d holds small pages %d..%d of %d, from byte %d", L, first, last, len(g.pages), off)
		}
	}
	return nil
}

// checkQueued: every cached page is queued, at its current key, where
// §5.4 evicts it from. A group with several small pages per large page
// queues it in its own small-page queue (step 5). A ratio-1 group keeps
// no such queue; its cached page's large page is queued at the page's
// key instead (step 3) — the fact that makes the small queue redundant
// (smallQueued).
func (m *Jenga) checkQueued(g *group) error {
	if !g.smallQueued() {
		if g.evict.pos != nil || g.evict.len() != 0 || cap(g.evict.heap) != 0 {
			return fmt.Errorf("a ratio-1 group keeps a small-page queue of %d slots, %d entries", len(g.evict.pos), g.evict.len())
		}
	} else if err := g.evict.check(); err != nil {
		return fmt.Errorf("small-page queue: %w", err)
	}
	for i := range g.pages {
		pg := &g.pages[i]
		if pg.status != pageCached {
			continue
		}
		id := arena.SmallPageID(i)
		if g.smallQueued() {
			want := pageEntry{id: id, ts: pg.lastAccess, prio: g.prio[id], expired: pg.has(pageExpired)}
			if got, ok := g.evict.at(i); !ok || got != want {
				return fmt.Errorf("cached page %d: small-page queue holds %+v (%v), its key is %+v", id, got, ok, want)
			}
			continue
		}
		L := g.view.LargeOf(id)
		want := largeEntry{id: L, ts: pg.lastAccess, expired: pg.has(pageExpired)}
		if got, ok := m.largeEvict.at(int(L)); !ok || got != want {
			return fmt.Errorf("cached page %d: large-page queue holds %+v (%v) for its large page, its key is %+v", id, got, ok, want)
		}
	}
	return nil
}

// checkHost: the tier is sound (hostTier.check), and its pins are
// exactly those of the pending restores of a claim in flight, each on
// the page whose sequence number it holds — none at all between calls.
func (m *Jenga) checkHost() error {
	h := m.host
	if err := h.check(); err != nil {
		return err
	}
	held, pins := int32(0), int32(0)
	for _, pr := range m.claimPending {
		if pr.g == nil || pr.pin.block < 0 {
			continue
		}
		if int(pr.pin.block) >= len(h.blocks) || h.pageOf(pr.pin.block).seq != pr.pin.seq {
			return fmt.Errorf("a pending restore's pin on block %d names page %d, which is not there", pr.pin.block, pr.pin.seq)
		}
		held++
	}
	for s := range h.pages {
		pins += h.pages[s].pins
	}
	if pins != held {
		return fmt.Errorf("pages hold %d pins, pending restores %d", pins, held)
	}
	return nil
}

// check: each group's index is a sound table (pageIndex.check) whose
// entries all name a block of one of the group's live pages, and every
// live block is indexed exactly once, at itself — unless a later store
// superseded it, when only a copy at least as new may hold its hash (a
// re-spill repoints, and the superseded copy stays unreachable even
// after the newer one dies); no page holds negative pins,
// a live page is queued at its (touch, seq) and a free slot (seq −1)
// holds no blocks, pins or queue entry; the live pages and the free
// list are the slots handed out so far, and the bytes used are one large
// page per live page.
func (h *hostTier) check() error {
	if err := h.evict.check(); err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	for gi := range h.index {
		err := h.index[gi].check(func(id int32) error {
			if id < 0 || int(id) >= len(h.blocks) {
				return fmt.Errorf("entry names block %d of %d", id, len(h.blocks))
			}
			if slot, pos := id/h.stride, id%h.stride; h.pages[slot].seq < 0 || int(h.pages[slot].group) != gi || pos >= h.pages[slot].n {
				return fmt.Errorf("entry names block %d of slot %d, which holds no live block of the group", pos, slot)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("group %s's index: %w", h.names[gi], err)
		}
	}
	live := 0
	for s := range int32(len(h.pages)) {
		pg := &h.pages[s]
		e, queued := h.evict.at(int(s))
		switch {
		case pg.pins < 0:
			return fmt.Errorf("slot %d holds %d pins", s, pg.pins)
		case pg.seq < 0 && (pg.pins != 0 || pg.n != 0 || queued):
			return fmt.Errorf("free slot %d holds %d pins, %d blocks, queued %v", s, pg.pins, pg.n, queued)
		case pg.seq >= 0 && (!queued || e.touch != pg.touch || e.seq != pg.seq):
			return fmt.Errorf("live page %d in slot %d is not queued at its key", pg.seq, s)
		case pg.seq >= 0 && s >= h.fresh:
			return fmt.Errorf("live page %d in slot %d, which was never handed out (%d were)", pg.seq, s, h.fresh)
		}
		if pg.seq < 0 {
			continue
		}
		live++
		for id, end := h.blockRange(s); id < end; id++ {
			got, ok := h.index[pg.group].get(h.hash[id])
			switch {
			case !h.blocks[id].superseded && (!ok || got != id):
				return fmt.Errorf("live block %d of slot %d (%x) is not indexed (the entry names block %d: %v)", id%h.stride, s, h.hash[id], got, ok)
			case h.blocks[id].superseded && ok && (got == id || h.pageOf(got).seq < pg.seq):
				return fmt.Errorf("superseded block %d of slot %d (%x) is indexed at block %d, no newer copy", id%h.stride, s, h.hash[id], got)
			}
		}
	}
	switch {
	case live != h.live || live+len(h.free) != int(h.fresh):
		return fmt.Errorf("%d live pages (counted %d) and %d free slots, %d handed out", live, h.live, len(h.free), h.fresh)
	case h.used != int64(live)*h.pageBytes:
		return fmt.Errorf("%d bytes used by %d pages of %d", h.used, live, h.pageBytes)
	}
	return nil
}

// checkHashes: a live request's record holds one hash per whole stride
// of what it folded in (and as many run keys where the class skips
// tokens), and every complete page the request holds, a block or a
// Mamba checkpoint, has the hash the record gives it — unless the
// record has folded in nothing: with the prefix cache off no page is
// hashed, and a fork child holds its parent's pages before its first
// commit. A record that names a head memo reads the entries of a memo
// the manager keeps, and the memos are checked by checkHeads.
func (m *Jenga) checkHashes() error {
	//jenga:order-ok each record is judged on its own; visit order only decides which violation is reported
	for id, r := range m.reqs {
		sh := &r.h
		if err := m.checkCounts(sh); err != nil {
			return fmt.Errorf("core: request %d: %w", id, err)
		}
		if hm := sh.head; hm != nil {
			if m.heads[hm.key] != hm {
				return fmt.Errorf("core: request %d names the memo of a %d-token head the manager does not keep", id, hm.key.n)
			}
			for ci := range sh.c {
				if ch, hc := &sh.c[ci], &hm.h.c[ci]; !slices.Equal(ch.head, hc.hashes) || !slices.Equal(ch.headRuns, hc.runs) {
					return fmt.Errorf("core: request %d: class %d's head entries are not its memo's", id, ci)
				}
			}
		}
		if sh.n == 0 {
			continue
		}
		for _, g := range m.groups {
			if g.isVision() {
				continue
			}
			rg, ch := &r.g[g.idx], &sh.c[g.hclass]
			for k := rg.base; k < rg.end(); k++ {
				if ref := rg.at(k); ref.held() && g.pages[ref.id()].has(pageComplete) && (k >= ch.blocks() || g.hash[ref.id()] != ch.at(k)) {
					return fmt.Errorf("core: request %d, group %s, entry %d of %d in its record: held complete page %d has hash %x",
						id, g.spec.Name, k, ch.blocks(), ref.id(), g.hash[ref.id()])
				}
			}
		}
	}
	return m.checkHeads()
}

// checkCounts: a record holds one hash per whole stride of what it
// folded in, and as many run keys where the class skips tokens.
func (m *Jenga) checkCounts(sh *seqHashes) error {
	for ci, c := range m.hashClasses {
		ch := &sh.c[ci]
		runs := len(ch.headRuns) + len(ch.runs)
		if ch.proj > sh.n || ch.blocks() != ch.proj/c.stride || (c.scope != model.ScopeAll && runs != ch.blocks()) {
			return fmt.Errorf("%d hashes, %d run keys of class %d for %d of %d tokens", ch.blocks(), runs, ci, ch.proj, sh.n)
		}
	}
	return nil
}

// checkHeads: every head memo the manager keeps is filed under its own
// key, has folded in its whole head and is named by as many live
// records as it counts, at least one — so a manager with no live
// request keeps none — and every spare memo is empty (checkEmpty).
func (m *Jenga) checkHeads() error {
	//jenga:order-ok each memo is judged on its own; visit order only decides which violation is reported
	for key, hm := range m.heads {
		named := 0
		//jenga:order-ok a count
		for _, r := range m.reqs {
			if r.h.head == hm {
				named++
			}
		}
		if hm.key != key || hm.h.n != key.n || hm.refs != named || named == 0 {
			return fmt.Errorf("core: the memo filed for a %d-token head is keyed by %d tokens, covers %d, counts %d references and is named by %d live records",
				key.n, hm.key.n, hm.h.n, hm.refs, named)
		}
		if err := m.checkCounts(&hm.h); err != nil {
			return fmt.Errorf("core: the memo of a %d-token head: %w", key.n, err)
		}
	}
	for hm := m.spareHeads; hm != nil; hm = hm.next {
		if hm.refs != 0 || hm.key != (headKey{}) {
			return fmt.Errorf("core: a spare head memo counts %d references to a %d-token head", hm.refs, hm.key.n)
		}
		if err := hm.h.checkEmpty(); err != nil {
			return fmt.Errorf("core: a spare head memo %w", err)
		}
	}
	return nil
}

// checkStacks: a group keeps stacks (links and their tops) exactly when
// it places pages by request with more than one small page per large
// page, so a ratio-1 group has no stack top. Every stack is reachable
// from its top with mutually consistent links, holds only pages that
// are empty, free, in a large page the group owns and associated with
// the stack's request, and the stacks together hold exactly the linked
// pages — so no page is on two, and no map entry names an empty stack.
// The converse (every such page is linked) holds only until its
// request's Release drops the stack, and never for the page a carve
// hands straight to its caller.
func (m *Jenga) checkStacks(g *group) error {
	if want := m.cfg.RequestAware && g.ratio > 1; g.stacked() != want || (g.links != nil && len(g.links) != len(g.pages)) {
		return fmt.Errorf("%d links for %d pages of ratio %d, request-aware %v", len(g.links), len(g.pages), g.ratio, m.cfg.RequestAware)
	}
	if !g.stacked() {
		if len(g.assocTop) > 0 {
			return fmt.Errorf("%d stack tops in a group that keeps no stacks", len(g.assocTop))
		}
		return nil
	}
	linked := 0
	for id := range g.links {
		l := &g.links[id]
		if l.prev != offStack {
			linked++
		} else if l.next != noPage {
			return fmt.Errorf("page %d is off every stack but links to %d", id, l.next)
		}
	}
	walked := 0
	//jenga:order-ok each stack is judged on its own pages; visit order only decides which violation is reported
	for req, top := range g.assocTop {
		above := noPage
		for id := int32(top); id != noPage; id = g.links[id].next {
			if id < 0 || int(id) >= len(g.pages) {
				return fmt.Errorf("request %d's stack links to page %d of %d", req, id, len(g.pages))
			}
			pg, l := &g.pages[id], &g.links[id]
			sid := arena.SmallPageID(id)
			switch {
			case l.prev != above:
				return fmt.Errorf("request %d's stack: page %d has %d above it, reached from %d", req, id, l.prev, above)
			case pg.status != pageEmpty || l.req != req:
				return fmt.Errorf("request %d's stack holds page %d (status %d, associated with %d)", req, id, pg.status, l.req)
			case !g.free.has(sid) || m.large[g.view.LargeOf(sid)].owner != int8(g.idx):
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

// checkFreeLarge: the free large pages are the returned stack and every
// ID from largeFresh up. The stack holds only IDs below largeFresh, each
// once, and is exactly the unowned pages there; a free page's record
// holds nothing but its stack link, and the owned pages are the ones
// the groups count.
func (m *Jenga) checkFreeLarge() error {
	if m.largeFresh < 0 || int(m.largeFresh) > len(m.large) {
		return fmt.Errorf("%d of %d pages handed out", m.largeFresh, len(m.large))
	}
	returned := 0
	for L := m.largeTop; L != -1; L = int32(m.large[L].ts) - 1 {
		if L < 0 || L >= m.largeFresh {
			return fmt.Errorf("the returned stack holds page %d; %d were handed out", L, m.largeFresh)
		}
		if owner := m.large[L].owner; owner >= 0 {
			return fmt.Errorf("the returned stack holds page %d, which group %d owns", L, owner)
		}
		if returned++; returned > int(m.largeFresh) {
			return fmt.Errorf("the returned stack holds more than the %d pages handed out (a cycle, or a page on it twice)", m.largeFresh)
		}
	}
	unowned, owned := 0, 0
	for L := range m.large {
		lp := m.large[L]
		if lp.owner >= 0 {
			owned++
			if L >= int(m.largeFresh) {
				return fmt.Errorf("page %d is owned by group %d, but only %d were handed out", L, lp.owner, m.largeFresh)
			}
			continue
		}
		if L < int(m.largeFresh) {
			unowned++
			lp.ts = 0 // the stack link
		}
		if lp != (largePage{owner: -1}) {
			return fmt.Errorf("free page %d records %+v", L, lp)
		}
	}
	if unowned != returned {
		return fmt.Errorf("%d unowned pages below %d, %d on the returned stack", unowned, m.largeFresh, returned)
	}
	groups := 0
	for _, g := range m.groups {
		groups += g.ownedLarge
	}
	if owned != groups {
		return fmt.Errorf("%d pages owned, the groups count %d", owned, groups)
	}
	return nil
}

// checkPrefixIndex: the group's index is a sound table whose entries
// are exactly the hashed pages, none of them empty, each found under its
// own hash at its own ID.
func checkPrefixIndex(g *group) error {
	hashed := 0
	for id := range g.pages {
		pg := &g.pages[id]
		if !pg.has(pageHashed) {
			continue
		}
		hashed++
		if pg.status == pageEmpty {
			return fmt.Errorf("empty page %d still owns index entry %x", id, g.hash[id])
		}
		if got, ok := g.index.get(g.hash[id]); !ok || int(got) != id {
			return fmt.Errorf("hashed page %d: index lookup of %x finds page %d (%v)", id, g.hash[id], got, ok)
		}
	}
	if hashed != g.index.len() {
		return fmt.Errorf("index counts %d entries, %d pages hashed", g.index.len(), hashed)
	}
	return g.index.check(func(id arena.SmallPageID) error {
		if id < 0 || int(id) >= len(g.pages) || !g.pages[id].has(pageHashed) {
			return fmt.Errorf("index entry names page %d, which owns none", id)
		}
		return nil
	})
}

// check: the table itself — at most half full, n entries, and every
// entry where a probe for its key leads (reachable from its home, the
// only one under its key) once valid has accepted its ID.
func (ix *pageIndex[I]) check(valid func(id I) error) error {
	occupied := 0
	for _, s := range ix.slots {
		if s != 0 {
			occupied++
		}
	}
	if occupied != ix.n || 2*occupied > len(ix.slots) {
		return fmt.Errorf("index counts %d entries, %d of its %d slots are occupied (at most half may be)", ix.n, occupied, len(ix.slots))
	}
	for i, s := range ix.slots {
		if s == 0 {
			continue
		}
		if err := valid(s - 1); err != nil {
			return err
		}
		key := ix.keys[s-1]
		switch j := ix.probe(key); {
		case j == i:
		case ix.slots[j] == 0:
			return fmt.Errorf("entry %d in slot %d is unreachable: a probe for its key %x stops at empty slot %d", s-1, i, key, j)
		default:
			return fmt.Errorf("entry %d in slot %d holds key %x, which entry %d in slot %d holds too", s-1, i, key, ix.slots[j]-1, j)
		}
	}
	return nil
}

// check: the run's segments hold strictly increasing keys, each
// closed one its live tie keys strictly increasing and the open one no
// dead entry; the heap is in order; pos and the two parts describe the
// same entries, in both directions; and the run and heap arrays
// together are no larger than the slot count.
func (q *evictQueue[E, T]) check() error {
	if c := cap(q.run) + cap(q.heap); c > len(q.pos) {
		return fmt.Errorf("run of %d and heap of %d entries for %d slots", cap(q.run), cap(q.heap), len(q.pos))
	}
	if len(q.run) != cap(q.run) || cap(q.segs) > len(q.pos) {
		return fmt.Errorf("ring of %d/%d positions, %d segments' room for %d slots", len(q.run), cap(q.run), cap(q.segs), len(q.pos))
	}
	if q.n > len(q.run) || q.live > q.n || (len(q.run) > 0 && q.head >= len(q.run)) {
		return fmt.Errorf("ring of %d positions holds %d (%d live) from %d", len(q.run), q.n, q.live, q.head)
	}
	if q.live == 0 && (q.n != 0 || len(q.segs) != 0 || q.open) {
		return fmt.Errorf("empty run keeps %d positions, %d segments, open %v", q.n, len(q.segs), q.open)
	}
	if q.n > 0 && (q.first >= len(q.segs) || int(q.segs[q.first].start) > q.base) {
		return fmt.Errorf("head %d is not in segment %d of %d", q.base, q.first, len(q.segs))
	}
	live := 0
	for j := q.first; j < len(q.segs); j++ {
		s := &q.segs[j]
		end := q.base + q.n
		if j+1 < len(q.segs) {
			end = int(q.segs[j+1].start)
			if !s.key().before(q.segs[j+1].key()) {
				return fmt.Errorf("segment %d's key %+v does not precede segment %d's %+v", j, s.key(), j+1, q.segs[j+1].key())
			}
		}
		if j > q.first && s.start <= q.segs[j-1].start || int(s.start) >= end {
			return fmt.Errorf("segment %d spans [%d, %d)", j, s.start, end)
		}
		open := q.open && j == len(q.segs)-1
		var prev T
		seen := false
		for a := max(int(s.start), q.base); a < end; a++ {
			p := q.phys(a - q.base)
			t := q.run[p]
			if q.pos[t.slot()] != int32(p+1) {
				if open {
					return fmt.Errorf("open segment holds a dead entry for slot %d at %d", t.slot(), p)
				}
				continue
			}
			live++
			if seen && !open && prev.cmp(t) >= 0 {
				return fmt.Errorf("run order broken at %d in segment %d", p, j)
			}
			if e := t.entry(s.key()); e.key() != s.key() || e.slot() != t.slot() {
				return fmt.Errorf("slot %d's entry %+v does not round-trip through segment %+v", t.slot(), e, s.key())
			}
			prev, seen = t, true
		}
	}
	if live != q.live {
		return fmt.Errorf("run counts %d live entries, holds %d", q.live, live)
	}
	for i := 1; i < len(q.heap); i++ {
		if q.heap[i].before(q.heap[(i-1)/2]) {
			return fmt.Errorf("heap order broken at %d", i)
		}
	}
	queued := 0
	for s, p := range q.pos {
		switch {
		case p > 0:
			if l := int(p) - 1 - q.head; int(p) > len(q.run) || q.run[p-1].slot() != s || (l+len(q.run))%len(q.run) >= q.n {
				return fmt.Errorf("pos[%d] = %d names no run entry of the slot", s, p)
			}
		case p < 0:
			if i := int(-p) - 1; i >= len(q.heap) || q.heap[i].slot() != s {
				return fmt.Errorf("pos[%d] = %d names no heap entry of the slot", s, p)
			}
		default:
			continue
		}
		queued++
	}
	if queued != q.len() {
		return fmt.Errorf("%d slots marked queued, %d entries", queued, q.len())
	}
	return nil
}

// at returns the entry a slotted queue holds for slot, if any.
func (q *evictQueue[E, T]) at(slot int) (E, bool) {
	var none E
	switch p := q.pos[slot]; {
	case p < 0:
		return q.heap[-p-1], true
	case p > 0:
		a := q.absolute(int(p) - 1)
		j := q.first
		for j+1 < len(q.segs) && int(q.segs[j+1].start) <= a {
			j++
		}
		return q.run[p-1].entry(q.segs[j].key()), true
	}
	return none, false
}

// mustHold panics on a violated invariant; the jengadebug build calls
// it where a violation would otherwise surface much later.
func (m *Jenga) mustHold() {
	if err := m.CheckInvariants(); err != nil {
		panic(err)
	}
}

// longestValidLinear is longestValid without the skips: every
// candidate from maxP down is tried in turn, rejected where a group's
// projection is not whole table entries and asked of every view's
// policy otherwise. A jengadebug build checks each Lookup's answer
// against it.
func longestValidLinear(views []lookupView, maxP int) int {
candidates:
	for p := maxP; p > 0; p-- {
		for _, gv := range views {
			if gv.view.ProjCount[p]%gv.view.BlockTokens != 0 {
				continue candidates
			}
			if !gv.g.pol.ValidPrefix(gv.view, p) {
				continue candidates
			}
		}
		return p
	}
	return 0
}
