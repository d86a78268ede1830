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
// pos and h describe the same set in an array that never outgrew the
// slot count — the queue's part of CheckInvariants.
func checkQueue[E interface{ before(E) bool }](t *testing.T, q *evictQueue[E]) {
	t.Helper()
	if err := q.check(); err != nil {
		t.Fatal(err)
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
//	2: slotted over an ID space that grows a chunk at a time and
//	   reuses freed slots, stale entries impossible, pinned entries
//	   popped and re-pushed (the host-tier queue).
//
// After every op the queue's heap order and pos index are checked, and
// a slotted queue never exceeds its slot count, in entries or in array.
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
			fuzzTier(t, data[1:])
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

// fuzzTier is the host tier's use of the queue: slotted over slab
// slots that are added a chunk at a time (growSlots) and reused after
// eviction, exactly one entry per live page, re-keyed in place by a
// touch; a pinned page that comes up is popped, stashed and re-pushed.
// The reference keeps every snapshot and validates on pop — what the
// tier's own queue did while it was unslotted.
func fuzzTier(t *testing.T, data []byte) {
	const chunk = 4
	type pageState struct {
		live, pinned bool
		touch        Tick
		seq          int64
	}
	var (
		q     evictQueue[hostEvictEntry]
		ref   lazyHeap[hostEvictEntry]
		pages []pageState // by slot
		free  []int32
		next  int64
		nLive int
	)
	q.initSlots(0, hostEvictEntry.slot)
	live := func(e hostEvictEntry) bool {
		p := pages[e.id]
		return p.live && p.seq == e.seq && p.touch == e.touch
	}
	push := func(e hostEvictEntry) {
		q.push(e)
		heap.Push(&ref, e)
	}
	// victim is the tier's eviction loop, over either queue: the first
	// live unpinned entry, pinned ones re-queued behind it.
	victim := func(n func() int, pop func() hostEvictEntry, push func(hostEvictEntry)) (hostEvictEntry, bool) {
		var stash []hostEvictEntry
		var got hostEvictEntry
		found := false
		for n() > 0 && !found {
			e := pop()
			switch {
			case !live(e): // stale: only the reference holds any
			case pages[e.id].pinned:
				stash = append(stash, e)
			default:
				got, found = e, true
			}
		}
		for _, e := range stash {
			push(e)
		}
		return got, found
	}
	for i := 0; i+1 < len(data); i += 2 {
		now := Tick(data[i+1])
		pick := int(data[i] >> 3)
		switch data[i] & 7 {
		case 0, 1: // store a new page, in a free slot or a new chunk's first
			if len(free) == 0 {
				pages = append(pages, make([]pageState, chunk)...)
				q.growSlots(len(pages))
				for s := len(pages) - 1; s >= len(pages)-chunk; s-- {
					free = append(free, int32(s))
				}
			}
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			pages[slot] = pageState{live: true, touch: now, seq: next}
			push(hostEvictEntry{touch: now, seq: next, id: slot})
			next++
			nLive++
		case 2, 3: // evict
			got, gotOK := victim(q.len, q.pop, q.push)
			want, wantOK := victim(func() int { return ref.Len() }, // not ref.Len: that binds today's slice header
				func() hostEvictEntry { return heap.Pop(&ref).(hostEvictEntry) },
				func(e hostEvictEntry) { heap.Push(&ref, e) })
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: victim %+v (%v), reference %+v (%v)", i, got, gotOK, want, wantOK)
			}
			if gotOK {
				pages[got.id].live = false
				free = append(free, got.id)
				nLive--
			}
		case 4, 5: // touch a live page: its entry is re-keyed in place
			if len(pages) > 0 {
				slot := int32(pick % len(pages))
				if p := &pages[slot]; p.live && p.touch < now {
					p.touch = now
					push(hostEvictEntry{touch: now, seq: p.seq, id: slot})
				}
			}
		default: // pin or unpin a live page
			if len(pages) > 0 {
				if p := &pages[pick%len(pages)]; p.live {
					p.pinned = !p.pinned
				}
			}
		}
		checkQueue(t, &q)
		if q.len() != nLive {
			t.Fatalf("op %d: %d entries for %d live pages", i, q.len(), nLive)
		}
	}
}
