// Package oldrelease is the release path of internal/core as it stood
// before the eviction queues were typed: container/heap adapters fed
// through heap.Push, which boxes one entry struct per call. The
// analyzer passed it then; this copy pins that it no longer does, so
// the pattern cannot come back under a //jenga:hotpath annotation.
package oldrelease

import "container/heap"

type pageEntry struct {
	id      int32
	ts      int64
	prio    int64
	expired bool
}

type pageHeap []pageEntry

func (h pageHeap) Len() int           { return len(h) }
func (h pageHeap) Less(i, j int) bool { return h[i].ts < h[j].ts }
func (h pageHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pageHeap) Push(x any)        { *h = append(*h, x.(pageEntry)) }
func (h *pageHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type largeEntry struct {
	id      int32
	ts      int64
	expired bool
}

type largeHeap []largeEntry

func (h largeHeap) Len() int           { return len(h) }
func (h largeHeap) Less(i, j int) bool { return h[i].ts < h[j].ts }
func (h largeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *largeHeap) Push(x any)        { *h = append(*h, x.(largeEntry)) }
func (h *largeHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type page struct {
	cached     bool
	ref        int32
	lastAccess int64
	priority   int64
}

type manager struct {
	pages      []page
	evict      pageHeap
	largeEvict largeHeap
	cntUsed    []int32
	largeTS    []int64
}

//jenga:hotpath
func (m *manager) pageRelease(id int32, exitTS int64, expired bool) {
	pg := &m.pages[id]
	pg.ref--
	if pg.ref > 0 {
		return
	}
	L := id / 16
	m.cntUsed[L]--
	pg.cached = true
	pg.lastAccess = exitTS
	if exitTS > m.largeTS[L] {
		m.largeTS[L] = exitTS
	}
	heap.Push(&m.evict, pageEntry{id: id, ts: pg.lastAccess, prio: pg.priority, expired: expired}) // want "pageEntry value boxed into any in //jenga:hotpath function pageRelease"
	if m.cntUsed[L] == 0 {
		m.pushLargeCandidate(L, expired)
	}
}

//jenga:hotpath
func (m *manager) pushLargeCandidate(L int32, expired bool) {
	heap.Push(&m.largeEvict, largeEntry{id: L, ts: m.largeTS[L], expired: expired}) // want "largeEntry value boxed into any in //jenga:hotpath function pushLargeCandidate"
}

//jenga:hotpath
func (m *manager) evictLargeLRU() (int32, bool) {
	for m.largeEvict.Len() > 0 {
		e := heap.Pop(&m.largeEvict).(largeEntry)
		if e.ts != m.largeTS[e.id] {
			heap.Push(&m.largeEvict, largeEntry{id: e.id, ts: m.largeTS[e.id], expired: e.expired}) // want "largeEntry value boxed into any"
			continue
		}
		return e.id, true
	}
	return 0, false
}
