package core

import (
	"container/heap"
	"testing"

	"jenga/internal/arena"
)

// lazyHeap is the reference: the container/heap adapter the eviction
// queues used to be, keeping every pushed snapshot until it is popped.
type lazyHeap[E interface{ before(E) bool }] []E

func (h lazyHeap[E]) Len() int           { return len(h) }
func (h lazyHeap[E]) Less(i, j int) bool { return h[i].before(h[j]) }
func (h lazyHeap[E]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap[E]) Push(x any)        { *h = append(*h, x.(E)) }
func (h *lazyHeap[E]) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// checkQueue verifies the heap order and, for a slotted queue, that
// pos and h describe the same set.
func checkQueue[E interface{ before(E) bool }](t *testing.T, q *evictQueue[E]) {
	t.Helper()
	for i := 1; i < len(q.h); i++ {
		if q.h[i].before(q.h[(i-1)/2]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
	if q.pos == nil {
		return
	}
	for i, e := range q.h {
		if got := q.pos[q.slot(e)]; int(got) != i+1 {
			t.Fatalf("pos[%d] = %d, entry sits at %d", q.slot(e), got, i)
		}
	}
	queued := 0
	for _, p := range q.pos {
		if p != 0 {
			queued++
		}
	}
	if queued != len(q.h) {
		t.Fatalf("%d slots marked queued, %d entries", queued, len(q.h))
	}
}

// FuzzEvictQueue drives evictQueue and the lazy multi-entry reference
// with one byte-encoded op stream and the same validate-on-pop rule,
// and requires the same sequence of victims. data[0] picks the mode:
//
//	0: slotted, stale → skip (the small-page queue): a page's key only
//	   changes with a push, or the page leaves the cached set;
//	1: slotted, stale → skip, moved key → re-key and continue (the
//	   large-page queue): keys may also rise without a push — never
//	   drop, the one case where a single entry per slot is seen later
//	   than the minimum of its snapshots (see alloc.go);
//	2: unslotted with random compactions (the host-tier queue).
//
// After every op the queue's heap order and pos index are checked, and
// a slotted queue never exceeds its slot count.
func FuzzEvictQueue(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0x00, 5, 0x10, 3, 0x00, 9, 0x02, 0, 0x02, 0})
	f.Add([]byte{1, 0x00, 5, 0x10, 3, 0x23, 7, 0x02, 0, 0x00, 1, 0x02, 0, 0x02, 0})
	f.Add([]byte{2, 0x00, 5, 0x10, 3, 0x03, 9, 0x04, 0, 0x02, 0, 0x02, 0})
	churn := []byte{1}
	for i := 0; i < 96; i++ {
		churn = append(churn, byte(i%16)<<4, byte(i*7), byte(i%16)<<4|byte(1+i%3), byte(i*3))
	}
	f.Add(churn)
	f.Add(append([]byte{2}, churn[1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		switch data[0] % 3 {
		case 0:
			fuzzSlotted(t, data[1:], false)
		case 1:
			fuzzSlotted(t, data[1:], true)
		default:
			fuzzUnslotted(t, data[1:])
		}
	})
}

func fuzzSlotted(t *testing.T, data []byte, rekey bool) {
	const slots = 16
	type state struct {
		cached  bool
		ts      Tick
		expired bool
	}
	var (
		q   evictQueue[largeEntry]
		ref lazyHeap[largeEntry]
		st  [slots]state
	)
	q.initSlots(slots, largeEntry.slot)
	push := func(e largeEntry) {
		q.push(e)
		heap.Push(&ref, e)
	}
	// classify is the validate-on-pop rule: 0 skip, 1 re-key, 2 victim.
	classify := func(e largeEntry) int {
		s := st[e.id]
		switch {
		case !s.cached:
			return 0
		case s.ts == e.ts && s.expired == e.expired:
			return 2
		case rekey:
			return 1
		}
		return 0
	}
	// victim is the eviction loop, over either queue.
	victim := func(n func() int, pop func() largeEntry, push func(largeEntry)) (largeEntry, bool) {
		for n() > 0 {
			e := pop()
			switch classify(e) {
			case 1:
				push(largeEntry{id: e.id, ts: st[e.id].ts, expired: st[e.id].expired})
			case 2:
				return e, true
			}
		}
		return largeEntry{}, false
	}
	for i := 0; i+1 < len(data); i += 2 {
		id := arena.LargePageID(data[i] >> 4)
		ts := Tick(data[i+1])
		s := &st[id]
		switch data[i] & 3 {
		case 0: // (re)enter the cached set with a fresh key
			*s = state{cached: true, ts: ts, expired: data[i]&4 != 0}
			push(largeEntry{id: id, ts: s.ts, expired: s.expired})
		case 1: // leave the cached set: every queued entry goes stale
			s.cached = false
		case 2: // evict
			got, gotOK := victim(q.len, q.pop, q.push)
			want, wantOK := victim(func() int { return ref.Len() }, // not ref.Len: that binds today's slice header
				func() largeEntry { return heap.Pop(&ref).(largeEntry) },
				func(e largeEntry) { heap.Push(&ref, e) })
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: victim %+v (%v), reference %+v (%v)", i, got, gotOK, want, wantOK)
			}
			if gotOK {
				st[got.id].cached = false
			}
		case 3: // key rises without a push (re-key mode only)
			if rekey && s.cached && !s.expired && ts > s.ts {
				s.ts = ts
			}
		}
		checkQueue(t, &q)
		if q.len() > slots {
			t.Fatalf("op %d: slotted queue holds %d entries for %d slots", i, q.len(), slots)
		}
	}
}

func fuzzUnslotted(t *testing.T, data []byte) {
	var (
		q     evictQueue[hostEvictEntry]
		ref   lazyHeap[hostEvictEntry]
		pages = map[int64]Tick{} // live seq → touch
		order []int64            // live seqs, oldest first
		next  int64
	)
	live := func(e hostEvictEntry) bool {
		touch, ok := pages[e.seq]
		return ok && touch == e.touch
	}
	push := func(e hostEvictEntry) {
		q.push(e)
		heap.Push(&ref, e)
	}
	// victim is the eviction loop, over either queue.
	victim := func(n func() int, pop func() hostEvictEntry) (hostEvictEntry, bool) {
		for n() > 0 {
			if e := pop(); live(e) {
				return e, true
			}
		}
		return hostEvictEntry{}, false
	}
	for i := 0; i+1 < len(data); i += 2 {
		now := Tick(data[i+1])
		switch data[i] & 7 {
		case 0, 1: // store a new page
			pages[next] = now
			order = append(order, next)
			push(hostEvictEntry{touch: now, seq: next})
			next++
		case 2: // evict
			got, gotOK := victim(q.len, q.pop)
			want, wantOK := victim(func() int { return ref.Len() }, // not ref.Len: that binds today's slice header
				func() hostEvictEntry { return heap.Pop(&ref).(hostEvictEntry) })
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: victim %+v (%v), reference %+v (%v)", i, got, gotOK, want, wantOK)
			}
			if gotOK {
				delete(pages, got.seq)
			}
		case 3: // touch a live page: the old entry goes stale
			if len(order) > 0 {
				seq := order[int(data[i]>>3)%len(order)]
				if touch, ok := pages[seq]; ok && touch < now {
					pages[seq] = now
					push(hostEvictEntry{touch: now, seq: seq})
				}
			}
		case 4: // compact: only the reference keeps its stale entries
			q.filter(live)
			if q.len() > len(pages) {
				t.Fatalf("op %d: %d entries after compaction, %d live pages", i, q.len(), len(pages))
			}
		default: // drop a page behind the queue's back
			if len(order) > 0 {
				delete(pages, order[int(data[i]>>3)%len(order)])
			}
		}
		checkQueue(t, &q)
	}
}
