package core

import (
	"cmp"

	"jenga/internal/arena"
)

// Eviction queues (evictq.go). Both are slotted — one entry per small
// page of the group, one per large page, replaced in place when the
// page is pushed again — so neither outgrows len(g.pages) or
// NumLargePages(). Only a group with several small pages per large
// page has a small-page queue (smallQueued). An entry is a snapshot of
// the page's eviction key at its last push, validated on pop (stale →
// skip, large key moved → re-key and continue).
//
// With a single entry a large page is seen at its last pushed key, not
// at the minimum of every key it was ever pushed with. The two differ
// only when a large page's key drops without a push (evictOneSmall
// taking the max-last-access page out of an already-evictable large
// page, say) while an older, smaller snapshot would still have been
// queued. No workload or golden reaches that; if one ever moves for
// this reason, keep the smaller of the old and new key on replace
// rather than moving the golden.

type pageEntry struct {
	ts      Tick
	prio    int64
	id      arena.SmallPageID
	expired bool
}

// before orders evictable pages expired-first (§3.3: out-of-window KV
// is evicted before any live page), then by (lastAccess asc, priority
// desc, id asc) — LRU with the §5.1 prefix-length tie break.
func (a pageEntry) before(b pageEntry) bool {
	if a.expired != b.expired {
		return a.expired
	}
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

func (a pageEntry) slot() int { return int(a.id) }

func (a pageEntry) key() evictKey { return evictKey{tick: a.ts, class: evictClass(a.expired)} }

func (a pageEntry) tie() pageTie { return pageTie{prio: a.prio, id: a.id} }

// pageTie is what the run keeps of a pageEntry: (priority desc, id asc).
type pageTie struct {
	prio int64
	id   arena.SmallPageID
}

func (a pageTie) cmp(b pageTie) int {
	if a.prio != b.prio {
		return cmp.Compare(b.prio, a.prio)
	}
	return cmp.Compare(a.id, b.id)
}

func (a pageTie) slot() int { return int(a.id) }

func (a pageTie) entry(k evictKey) pageEntry {
	return pageEntry{ts: k.tick, prio: a.prio, id: a.id, expired: k.class == 0}
}

// evictClass is an expired entry's segment class, 0 — it evicts first
// (§3.3) — or a live one's, 1.
func evictClass(expired bool) uint8 {
	if expired {
		return 0
	}
	return 1
}

type largeEntry struct {
	ts      Tick
	id      arena.LargePageID
	expired bool
}

// before orders evictable large pages expired-first, then by the
// latest last-access time among their small pages (§5.4 step 3).
func (a largeEntry) before(b largeEntry) bool {
	if a.expired != b.expired {
		return a.expired
	}
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.id < b.id
}

func (a largeEntry) slot() int { return int(a.id) }

func (a largeEntry) key() evictKey { return evictKey{tick: a.ts, class: evictClass(a.expired)} }

func (a largeEntry) tie() largeSlot { return largeSlot(a.id) }

// largeSlot is what the run keeps of a largeEntry: its ID, 4 bytes.
type largeSlot int32

func (a largeSlot) cmp(b largeSlot) int { return cmp.Compare(a, b) }

func (a largeSlot) slot() int { return int(a) }

func (a largeSlot) entry(k evictKey) largeEntry {
	return largeEntry{ts: k.tick, id: arena.LargePageID(a), expired: k.class == 0}
}

// --- page state transitions -------------------------------------------

// cacheAdd registers a page entering the cached state of large page L,
// keeping the large page's eviction key (cached/expired counts, max
// last-access) current without a rescan.
func (m *Jenga) cacheAdd(L arena.LargePageID, ts Tick, expired bool) {
	lp := &m.large[L]
	lp.cached++
	if expired {
		lp.expired++
	}
	if ts > lp.ts {
		lp.ts = ts
	}
}

// cacheRemove registers a cached page leaving the cached state of large
// page L. A max can't be maintained incrementally under removal, so
// when the departing page holds the current max the key is only marked
// dirty; largeTimestamp recomputes it lazily if the page is ever read
// as an eviction candidate again.
func (m *Jenga) cacheRemove(L arena.LargePageID, pg *page) {
	lp := &m.large[L]
	lp.cached--
	if pg.has(pageExpired) {
		lp.expired--
	}
	if lp.cached == 0 {
		lp.ts, lp.dirty = 0, false
	} else if pg.lastAccess == lp.ts {
		lp.dirty = true
	}
}

// pageToUsed moves an empty or cached page into the used state with one
// reference held by req.
//
//jenga:hotpath
func (m *Jenga) pageToUsed(g *group, id arena.SmallPageID, req RequestID) {
	pg := &g.pages[id]
	L := g.view.LargeOf(id)
	switch pg.status {
	case pageEmpty:
		g.free.remove(id)
		if g.stacked() {
			g.unlinkAssoc(id) // while its link still names the stack
		}
		pg.filled, pg.dead = 0, 0
		g.hash[id] = 0
		pg.set(pageComplete|pageHashed, false)
	case pageCached:
		// Re-claimed prefix-cache page: its content is a full valid
		// block for the claimant, so dead slots reset.
		if pg.ref != 0 {
			check(false, "cached page %d has refs", id)
		}
		g.nCached--
		m.cacheRemove(L, pg)
		pg.dead = 0
		pg.set(pageExpired, false)
		g.filledSlots += int64(pg.filled)
		m.cacheGen++
	default:
		check(false, "pageToUsed on used page %d", id)
	}
	pg.status = pageUsed
	pg.ref = 1
	if g.stacked() {
		g.links[id].req = req
	}
	g.nUsed++
	m.large[L].used++
	m.stats.Allocs++
}

// publish enters complete page id in the group's prefix index under its
// hash, unless another page already holds that hash.
//
//jenga:hotpath
func (m *Jenga) publish(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if g.index.put(id) {
		pg.set(pageHashed, true)
		m.cacheGen++
	}
}

// pageAddRef shares an already-used page with another request.
func (m *Jenga) pageAddRef(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.status != pageUsed || pg.ref <= 0 {
		check(false, "addRef on non-used page %d", id)
	}
	pg.ref++
	g.extraRefs++
}

// pageRelease drops one reference; at zero the page becomes cached
// (when cache is true and the block hash was published) or empty.
// exitTS is the page's final last-access time (§5.1 semantics: the time
// the page was last read by a computation). expired marks KV outside
// the dependency horizon — first in line for eviction (§3.3).
//
//jenga:hotpath
func (m *Jenga) pageRelease(g *group, id arena.SmallPageID, cache bool, exitTS Tick, expired bool) {
	pg := &g.pages[id]
	if pg.status != pageUsed || pg.ref <= 0 {
		check(false, "release on non-used page %d", id)
	}
	pg.ref--
	if pg.ref > 0 {
		// Still shared: another holder keeps the page used; only the
		// shared-bytes accounting shrinks.
		g.extraRefs--
		return
	}
	L := g.view.LargeOf(id)
	g.nUsed--
	m.large[L].used--
	g.filledSlots -= int64(pg.filled)
	g.deadSlots -= int64(pg.dead)
	if cache && pg.has(pageComplete) && !pg.has(pageHashed) {
		// The block was computed while another page owned the index
		// entry for the same content; publish now if the slot freed up.
		m.publish(g, id)
	}
	if cache && pg.has(pageHashed) {
		m.cacheGen++
		pg.status = pageCached
		pg.lastAccess = exitTS
		pg.set(pageExpired, expired)
		g.nCached++
		m.cacheAdd(L, exitTS, expired)
		if g.smallQueued() {
			g.evict.push(pageEntry{id: id, ts: pg.lastAccess, prio: pg.priority, expired: expired})
		}
	} else {
		m.pageToEmpty(g, id)
	}
	// The page was perhaps its large page's last used one. Then the large
	// page is evictable from here on if anything on it is cached — this
	// page, or siblings when this one went empty (an incomplete tail
	// block, say) — and step 3 must be able to find it.
	if m.large[L].used == 0 {
		m.pushLargeCandidate(L)
	}
}

// pageToEmpty returns a page to the free pool and reclaims its large
// page if it became entirely empty. A page of a group without stacks
// (stacked) goes on none: in a ratio-1 group the page's large page has
// just emptied, and its reclaim would unlink it in the same call.
//
//jenga:hotpath
func (m *Jenga) pageToEmpty(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.has(pageHashed) {
		g.index.del(id)
		m.cacheGen++
	}
	pg.status = pageEmpty
	pg.filled, pg.dead = 0, 0
	pg.set(pageComplete|pageHashed, false)
	g.free.add(id)
	if g.stacked() {
		// The associated request may be long gone, but a preempted
		// request resumes under its old ID, so the page is linked all
		// the same.
		g.linkAssoc(g.links[id].req, id, 1)
	}
	m.stats.Frees++
	L := g.view.LargeOf(id)
	if lp := &m.large[L]; lp.used == 0 && lp.cached == 0 {
		m.reclaimLarge(g, L)
	}
}

// evictCached empties a cached page (prefix-cache eviction).
func (m *Jenga) evictCached(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.status != pageCached {
		check(false, "evict on non-cached page %d", id)
	}
	L := g.view.LargeOf(id)
	g.nCached--
	m.cacheRemove(L, pg)
	m.pageToEmpty(g, id)
}

// reclaimLarge returns a fully empty large page to the LCM allocator —
// the payoff of request-aware placement (§4.3).
func (m *Jenga) reclaimLarge(g *group, L arena.LargePageID) {
	if m.large[L].owner != int8(g.idx) {
		check(false, "reclaim of foreign large page %d", L)
	}
	first, n := g.view.SmallRange(L)
	for i := 0; i < n; i++ {
		id := first + arena.SmallPageID(i)
		g.free.remove(id)
		if g.stacked() {
			g.unlinkAssoc(id)
		}
	}
	g.ownedLarge--
	// Nothing on the page is used or cached, so its record is all zero
	// but the owner; push it on the returned stack.
	m.large[L] = largePage{ts: Tick(m.largeTop) + 1, owner: -1}
	m.largeTop = int32(L)
	m.stats.LargeReclaims++
}

// pushLargeCandidate registers a large page as an eviction candidate
// with the max last-access among its cached small pages.
//
//jenga:hotpath
func (m *Jenga) pushLargeCandidate(L arena.LargePageID) {
	ts, expired, ok := m.largeTimestamp(L)
	if !ok {
		return
	}
	m.largeEvict.push(largeEntry{id: L, ts: ts, expired: expired})
}

// largeTimestamp returns the eviction key of a large page: the latest
// last-access among its cached small pages, and whether every cached
// page holds expired KV (such pages evict first, §3.3). ok is false
// when the page is not currently evictable. The key is maintained
// incrementally by cacheAdd/cacheRemove, so the common case is O(1);
// only a dirty max (its holder left the cached set since the last
// read) triggers a rescan of the large page's small pages.
func (m *Jenga) largeTimestamp(L arena.LargePageID) (Tick, bool, bool) {
	lp := &m.large[L]
	if lp.owner < 0 || lp.used != 0 || lp.cached == 0 {
		return 0, false, false
	}
	if lp.dirty {
		g := m.groups[lp.owner]
		first, n := g.view.SmallRange(L)
		var ts Tick
		for i := 0; i < n; i++ {
			pg := &g.pages[first+arena.SmallPageID(i)]
			if pg.status == pageCached && pg.lastAccess > ts {
				ts = pg.lastAccess
			}
		}
		lp.ts, lp.dirty = ts, false
	}
	return lp.ts, lp.expired == lp.cached, true
}

// --- §5.4 allocation ----------------------------------------------------

// allocSmall finds one empty-or-evicted small page of group g for
// request req, following the five-step policy of §5.4:
//
//  1. an empty page associated with req;
//  2. a fresh large page from the LCM allocator;
//  3. evict an entire evictable large page (LRU by max last access);
//  4. any empty page of the type, regardless of association;
//  5. evict a single cached page of the type (LRU + priority).
//
// With RequestAware disabled (ablation), step 4 runs before steps 1–3.
//
//jenga:hotpath
func (m *Jenga) allocSmall(g *group, req RequestID) (arena.SmallPageID, error) {
	if !m.cfg.RequestAware {
		if id, ok := g.free.min(); ok {
			m.pageToUsed(g, id, req)
			return id, nil
		}
	}
	// Step 1: request-associated empty page.
	if m.cfg.RequestAware {
		if id, ok := g.popAssocFree(req); ok {
			m.pageToUsed(g, id, req)
			return id, nil
		}
	}
	// Step 2: carve a fresh large page.
	if id, ok := m.takeFreshLarge(g, req); ok {
		m.pageToUsed(g, id, req)
		return id, nil
	}
	// Step 3: evict a whole large page (possibly another type's).
	if m.evictLargeLRU() {
		if id, ok := m.takeFreshLarge(g, req); ok {
			m.pageToUsed(g, id, req)
			return id, nil
		}
		check(false, "large eviction produced no free large page")
	}
	// Step 4: any empty page of the type.
	if id, ok := g.free.min(); ok {
		m.pageToUsed(g, id, req)
		return id, nil
	}
	// Step 5: evict one cached page of the type. The eviction may have
	// emptied an entire large page (which reclaimLarge returned to the
	// LCM allocator), so re-probe the free pools rather than using the
	// evicted page directly.
	for m.evictOneSmall(g) {
		if id, ok := g.free.min(); ok {
			m.pageToUsed(g, id, req)
			return id, nil
		}
		if id, ok := m.takeFreshLarge(g, req); ok {
			m.pageToUsed(g, id, req)
			return id, nil
		}
	}
	return 0, ErrNoSpace
}

// takeFreshLarge assigns a free large page to g, associates all its
// small pages with req, and returns the first of them.
//
//jenga:hotpath
func (m *Jenga) takeFreshLarge(g *group, req RequestID) (arena.SmallPageID, bool) {
	var L arena.LargePageID
	switch {
	case m.largeTop >= 0:
		L = arena.LargePageID(m.largeTop)
		m.largeTop = int32(m.large[L].ts) - 1
	case int(m.largeFresh) < len(m.large):
		L = arena.LargePageID(m.largeFresh)
		m.largeFresh++
	default:
		return 0, false
	}
	if m.large[L].owner != -1 {
		check(false, "free large page %d has owner", L)
	}
	m.large[L] = largePage{owner: int8(g.idx)}
	g.ownedLarge++
	first, n := g.view.SmallRange(L)
	for i := n - 1; i >= 0; i-- {
		id := first + arena.SmallPageID(i)
		pg := &g.pages[id]
		pg.status = pageEmpty
		pg.ref, pg.filled, pg.dead = 0, 0, 0
		pg.set(pageHashed, false)
		g.free.add(id)
		if g.stacked() {
			g.links[id].req = req
		}
	}
	if g.stacked() {
		g.linkAssoc(req, first+1, n-1) // page 1 on top; the caller uses page 0 at once
	}
	return first, true
}

// evictLargeLRU evicts the least-recently-used evictable large page,
// returning it to the LCM free list. Reports whether one was evicted.
//
//jenga:hotpath
func (m *Jenga) evictLargeLRU() bool {
	for m.largeEvict.len() > 0 {
		e := m.largeEvict.pop()
		ts, expired, ok := m.largeTimestamp(e.id)
		if !ok {
			continue // stale: no longer evictable
		}
		if ts != e.ts || expired != e.expired {
			m.largeEvict.push(largeEntry{id: e.id, ts: ts, expired: expired})
			continue // stale key: retry with fresh position
		}
		og := m.groups[m.large[e.id].owner]
		// Tiered spill (§8): copy the victim page out to the host tier
		// before discarding, so the evicted bytes survive one tier down
		// and a later prefix Lookup restores them instead of
		// recomputing. Best-effort — a full (or absent) tier degrades
		// to today's discard.
		m.spillLarge(e.id, ts)
		first, n := og.view.SmallRange(e.id)
		for i := 0; i < n; i++ {
			id := first + arena.SmallPageID(i)
			if og.pages[id].status == pageCached {
				m.evictCached(og, id)
			}
		}
		m.stats.LargeEvictions++
		// pageToEmpty → reclaimLarge put it on the returned stack.
		return true
	}
	return false
}

// evictOneSmall evicts the least-recently-used cached page of g,
// reporting whether any eviction happened. A ratio-1 group's queue is
// empty, and has nothing to report when step 5 reaches it (smallQueued).
//
//jenga:hotpath
func (m *Jenga) evictOneSmall(g *group) bool {
	for g.evict.len() > 0 {
		e := g.evict.pop()
		pg := &g.pages[e.id]
		if pg.status != pageCached || pg.lastAccess != e.ts || pg.priority != e.prio || pg.has(pageExpired) != e.expired {
			continue // stale
		}
		m.evictCached(g, e.id)
		m.stats.SmallEvictions++
		return true
	}
	return false
}
