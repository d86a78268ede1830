package core

import "jenga/internal/arena"

// Eviction queues (evictq.go). Both are slotted — one entry per small
// page of the group, one per large page, replaced in place when the
// page is pushed again — so neither outgrows len(g.pages) or
// NumLargePages(). An entry is a snapshot of the page's eviction key
// at its last push, validated on pop (stale → skip, large key moved →
// re-key and continue).
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

// --- page state transitions -------------------------------------------

// cacheAdd registers a page entering the cached state of large page L,
// keeping the large page's eviction key (cached/expired counts, max
// last-access) current without a rescan.
func (m *Jenga) cacheAdd(L arena.LargePageID, ts Tick, expired bool) {
	m.cntCached[L]++
	if expired {
		m.cntExpired[L]++
	}
	if ts > m.largeTS[L] {
		m.largeTS[L] = ts
	}
}

// cacheRemove registers a cached page leaving the cached state of large
// page L. A max can't be maintained incrementally under removal, so
// when the departing page holds the current max the key is only marked
// dirty; largeTimestamp recomputes it lazily if the page is ever read
// as an eviction candidate again.
func (m *Jenga) cacheRemove(L arena.LargePageID, pg *page) {
	m.cntCached[L]--
	if pg.expired {
		m.cntExpired[L]--
	}
	if m.cntCached[L] == 0 {
		m.largeTS[L] = 0
		m.largeDirty[L] = false
	} else if pg.lastAccess == m.largeTS[L] {
		m.largeDirty[L] = true
	}
}

// pageToUsed moves an empty or cached page into the used state with one
// reference held by req.
//
//jenga:hotpath
func (m *Jenga) pageToUsed(g *group, id arena.SmallPageID, req RequestID) {
	pg := &g.pages[id]
	L := m.largeOf(g, id)
	switch pg.status {
	case pageEmpty:
		g.free.remove(id)
		g.unlinkAssoc(id) // while pg.assoc still names the stack
		pg.filled, pg.dead = 0, 0
		pg.hash, pg.complete, pg.hashed = 0, false, false
	case pageCached:
		// Re-claimed prefix-cache page: its content is a full valid
		// block for the claimant, so dead slots reset.
		if pg.ref != 0 {
			check(false, "cached page %d has refs", id)
		}
		g.nCached--
		m.cacheRemove(L, pg)
		pg.dead = 0
		pg.expired = false
		g.filledSlots += int64(pg.filled)
		m.cacheGen++
	default:
		check(false, "pageToUsed on used page %d", id)
	}
	pg.status = pageUsed
	pg.ref = 1
	pg.assoc = req
	g.nUsed++
	m.cntUsed[L]++
	m.stats.Allocs++
}

// publish enters complete page id in the group's prefix index under its
// hash, unless another page already holds that hash.
//
//jenga:hotpath
func (m *Jenga) publish(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.hashed = g.index.put(id); pg.hashed {
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
	L := m.largeOf(g, id)
	g.nUsed--
	m.cntUsed[L]--
	g.filledSlots -= int64(pg.filled)
	g.deadSlots -= int64(pg.dead)
	if cache && pg.complete && !pg.hashed {
		// The block was computed while another page owned the index
		// entry for the same content; publish now if the slot freed up.
		m.publish(g, id)
	}
	if cache && pg.hashed {
		m.cacheGen++
		pg.status = pageCached
		pg.lastAccess = exitTS
		pg.expired = expired
		g.nCached++
		m.cacheAdd(L, exitTS, expired)
		g.evict.push(pageEntry{id: id, ts: pg.lastAccess, prio: pg.priority, expired: expired})
		if m.cntUsed[L] == 0 {
			m.pushLargeCandidate(L)
		}
		return
	}
	m.pageToEmpty(g, id)
}

// pageToEmpty returns a page to the free pool and reclaims its large
// page if it became entirely empty.
//
//jenga:hotpath
func (m *Jenga) pageToEmpty(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.hashed {
		g.index.del(id)
		pg.hashed = false
		m.cacheGen++
	}
	pg.status = pageEmpty
	pg.filled, pg.dead = 0, 0
	pg.complete = false
	g.free.add(id)
	if m.cfg.RequestAware {
		// pg.assoc may be long gone, but a preempted request resumes
		// under its old ID, so the page is linked all the same.
		g.linkAssoc(pg.assoc, id, 1)
	}
	m.stats.Frees++
	L := m.largeOf(g, id)
	if m.cntUsed[L] == 0 && m.cntCached[L] == 0 {
		m.reclaimLarge(g, L)
	}
}

// evictCached empties a cached page (prefix-cache eviction).
func (m *Jenga) evictCached(g *group, id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.status != pageCached {
		check(false, "evict on non-cached page %d", id)
	}
	L := m.largeOf(g, id)
	g.nCached--
	m.cacheRemove(L, pg)
	m.pageToEmpty(g, id)
}

// reclaimLarge returns a fully empty large page to the LCM allocator —
// the payoff of request-aware placement (§4.3).
func (m *Jenga) reclaimLarge(g *group, L arena.LargePageID) {
	if m.largeOwner[L] != int32(g.idx) {
		check(false, "reclaim of foreign large page %d", L)
	}
	first, n := g.view.SmallRange(L)
	for i := 0; i < n; i++ {
		id := first + arena.SmallPageID(i)
		g.free.remove(id)
		g.unlinkAssoc(id)
	}
	g.ownedLarge--
	m.largeOwner[L] = -1
	m.freeLarge = append(m.freeLarge, L)
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
	if m.largeOwner[L] < 0 || m.cntUsed[L] != 0 || m.cntCached[L] == 0 {
		return 0, false, false
	}
	if m.largeDirty[L] {
		g := m.groups[m.largeOwner[L]]
		first, n := g.view.SmallRange(L)
		var ts Tick
		for i := 0; i < n; i++ {
			pg := &g.pages[first+arena.SmallPageID(i)]
			if pg.status == pageCached && pg.lastAccess > ts {
				ts = pg.lastAccess
			}
		}
		m.largeTS[L] = ts
		m.largeDirty[L] = false
	}
	return m.largeTS[L], m.cntExpired[L] == m.cntCached[L], true
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
	if len(m.freeLarge) == 0 {
		return 0, false
	}
	L := m.freeLarge[len(m.freeLarge)-1]
	m.freeLarge = m.freeLarge[:len(m.freeLarge)-1]
	if m.largeOwner[L] != -1 {
		check(false, "free large page %d has owner", L)
	}
	m.largeOwner[L] = int32(g.idx)
	g.ownedLarge++
	first, n := g.view.SmallRange(L)
	for i := n - 1; i >= 0; i-- {
		id := first + arena.SmallPageID(i)
		pg := &g.pages[id]
		pg.status = pageEmpty
		pg.ref, pg.filled, pg.dead = 0, 0, 0
		pg.hashed = false
		pg.assoc = req
		g.free.add(id)
	}
	if m.cfg.RequestAware && n > 1 {
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
		og := m.groups[m.largeOwner[e.id]]
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
		// pageToEmpty → reclaimLarge put it on freeLarge.
		return true
	}
	return false
}

// evictOneSmall evicts the least-recently-used cached page of g,
// reporting whether any eviction happened.
//
//jenga:hotpath
func (m *Jenga) evictOneSmall(g *group) bool {
	for g.evict.len() > 0 {
		e := g.evict.pop()
		pg := &g.pages[e.id]
		if pg.status != pageCached || pg.lastAccess != e.ts || pg.priority != e.prio || pg.expired != e.expired {
			continue // stale
		}
		m.evictCached(g, e.id)
		m.stats.SmallEvictions++
		return true
	}
	return false
}
