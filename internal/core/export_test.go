package core

import (
	"container/heap"
	"fmt"

	"jenga/internal/arena"
)

// LargeVictimCheck is a TierObserver for tests outside the package
// (package core_test, which may import the engine). Step 3 spills its
// victim to the host tier before evicting it, so the tier's TierStored
// names every victim, in eviction order: LargeVictimCheck finds the
// large page that holds the first stored block and requires it to be
// the one a fresh lazyHeap over every evictable large page, each at
// its current key, pops first. Err keeps the first mismatch; Checked
// counts the victims checked and FromHeap those checked while the
// large queue's fallback heap held entries.
type LargeVictimCheck struct {
	M                 *Jenga
	Checked, FromHeap int
	Err               error
}

func (c *LargeVictimCheck) TierStored(group string, hashes []uint64) {
	m := c.M
	g := m.groups[m.groupIndex(group)]
	id, ok := g.index.get(hashes[0])
	if c.Err != nil || !ok {
		return
	}
	got := g.view.LargeOf(id)
	var ref lazyHeap[largeEntry]
	for L := range m.large {
		if e, ok := trueLargeKey(m, arena.LargePageID(L)); ok {
			heap.Push(&ref, e)
		}
	}
	if want := heap.Pop(&ref).(largeEntry); want.id != got {
		c.Err = fmt.Errorf("victim %d: step 3 evicted large page %d, a fresh lazyHeap pops %+v", c.Checked, got, want)
	}
	c.Checked++
	if len(m.largeEvict.heap) > 0 {
		c.FromHeap++
	}
}

func (c *LargeVictimCheck) TierEvicted(string, []uint64) {}

// trueLargeKey is L's eviction key read from its small pages — the max
// last access among the cached ones, expired when all of them are —
// and whether L is evictable at all.
func trueLargeKey(m *Jenga, L arena.LargePageID) (largeEntry, bool) {
	lp := &m.large[L]
	if lp.owner < 0 || lp.used != 0 || lp.cached == 0 {
		return largeEntry{}, false
	}
	g := m.groups[lp.owner]
	first, n := g.view.SmallRange(L)
	e := largeEntry{id: L, expired: true}
	for i := 0; i < n; i++ {
		if pg := &g.pages[first+arena.SmallPageID(i)]; pg.status == pageCached {
			e.ts = max(e.ts, pg.lastAccess)
			e.expired = e.expired && pg.has(pageExpired)
		}
	}
	return e, true
}
