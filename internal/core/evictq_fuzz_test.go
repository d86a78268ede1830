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

// checkQueue runs the queue's part of CheckInvariants: run order, one
// key per segment, pos ↔ location in both directions, and run + heap
// arrays within the slot count.
func checkQueue[E evictEntry[E, T], T evictTie[E, T]](t *testing.T, q *evictQueue[E, T]) {
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
//	   popped and re-pushed (the host-tier queue, heap-only as the tier
//	   sizes it);
//	3: mode 2 with a queue free to use its run;
//	4: mode 1 in batches over more slots (fuzzBatches): same-tick runs
//	   of IDs descending or shuffled, the clock going back mid-stream,
//	   the expired class flipping inside a tick, and replacements
//	   wherever the slot's entry sits — open segment, closed run, heap.
//
// After every op the queue's invariants are checked (checkQueue).
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
	f.Add(append([]byte{3}, churn[1:]...))
	// Batches: descending and shuffled runs at one tick, an expired
	// flip and a replacement inside it, newer ticks, evictions through
	// the closed run, a warm restart, and replacements of entries in
	// the open segment, the closed run and the heap.
	f.Add([]byte{4,
		0x00, 15, 0x09, 11, 0x02, 1, 0x04, 3, 0x07, 20, 0x07, 3, 0x02, 2,
		0x01, 7, 0x05, 2, 0x03, 0, 0x00, 4, 0x07, 100, 0x05, 3, 0x07, 30,
		0x06, 40, 0x05, 1, 0x02, 1, 0x01, 9, 0x05, 3})
	// Rounds of a batch of 16 with a replacement in it, a tick, four
	// evictions and a replacement in the closed run: the ring's head
	// moves on and its tail wraps round, and a segment that wraps is
	// sorted.
	wrap := []byte{4}
	for i := 0; i < 64; i++ {
		wrap = append(wrap, byte(i*7%32)<<3, 15, 0x07, byte(i*7%32*5+3), 0x02, 1, 0x05, 3, 0x05, 3, 0x07, byte(i*7%32*5+9))
	}
	f.Add(wrap)
	// A ring of 160 filled with eight batches of 16 at rising ticks, 40
	// evictions, then three batches at one tick: the open segment wraps
	// with less free room than it holds, and the next tick's push sorts
	// it after compacting the ring.
	full := []byte{4}
	for b := byte(0); b < 32; b += 4 {
		full = append(full, b<<3, 15, 0x02, 1)
	}
	for i := 0; i < 10; i++ {
		full = append(full, 0x05, 3)
	}
	full = append(full, 0x02, 1, 0<<3, 15, 4<<3, 15, 8<<3, 15, 0x02, 1, 12<<3, 15, 0x05, 3, 0x05, 3)
	f.Add(full)
	long := []byte{4}
	for i := 0; i < 160; i++ {
		long = append(long, byte(i*37)&^7|byte(i%8), byte(i*11))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		switch data[0] % 5 {
		case 0:
			fuzzSlotted(t, data[1:], false)
		case 1:
			fuzzSlotted(t, data[1:], true)
		case 2:
			fuzzTier(t, data[1:], true)
		case 3:
			fuzzTier(t, data[1:], false)
		default:
			fuzzBatches(t, data[1:])
		}
	})
}

// slotted drives a large-page queue and the lazy reference side by side
// under the large queue's validate-on-pop rule.
type slotted struct {
	t     *testing.T
	rekey bool
	q     evictQueue[largeEntry, largeSlot]
	ref   lazyHeap[largeEntry]
	st    []slotState
}

type slotState struct {
	cached  bool
	ts      Tick
	expired bool
}

func newSlotted(t *testing.T, slots int, rekey bool) *slotted {
	h := &slotted{t: t, rekey: rekey, st: make([]slotState, slots)}
	h.q.initSlots(slots, 0)
	return h
}

// enter (re)enters id into the cached set with a fresh key.
func (h *slotted) enter(id arena.LargePageID, ts Tick, expired bool) {
	h.st[id] = slotState{cached: true, ts: ts, expired: expired}
	e := largeEntry{id: id, ts: ts, expired: expired}
	h.q.push(e)
	heap.Push(&h.ref, e)
}

// classify is the validate-on-pop rule: 0 skip, 1 re-key, 2 victim.
func (h *slotted) classify(e largeEntry) int {
	s := h.st[e.id]
	switch {
	case !s.cached:
		return 0
	case s.ts == e.ts && s.expired == e.expired:
		return 2
	case h.rekey:
		return 1
	}
	return 0
}

// victim is the eviction loop, over either queue.
func (h *slotted) victim(n func() int, pop func() largeEntry, push func(largeEntry)) (largeEntry, bool) {
	for n() > 0 {
		e := pop()
		switch h.classify(e) {
		case 1:
			push(largeEntry{id: e.id, ts: h.st[e.id].ts, expired: h.st[e.id].expired})
		case 2:
			return e, true
		}
	}
	return largeEntry{}, false
}

// evict takes one victim from each queue and requires the same one.
func (h *slotted) evict(op int) {
	got, gotOK := h.victim(h.q.len, h.q.pop, h.q.push)
	want, wantOK := h.victim(func() int { return h.ref.Len() }, // not ref.Len: that binds today's slice header
		func() largeEntry { return heap.Pop(&h.ref).(largeEntry) },
		func(e largeEntry) { heap.Push(&h.ref, e) })
	if got != want || gotOK != wantOK {
		h.t.Fatalf("op %d: victim %+v (%v), reference %+v (%v)", op, got, gotOK, want, wantOK)
	}
	if gotOK {
		h.st[got.id].cached = false
	}
}

func (h *slotted) check(op int) {
	h.t.Helper()
	checkQueue(h.t, &h.q)
	if h.q.len() > len(h.st) {
		h.t.Fatalf("op %d: slotted queue holds %d entries for %d slots", op, h.q.len(), len(h.st))
	}
}

func fuzzSlotted(t *testing.T, data []byte, rekey bool) {
	h := newSlotted(t, 16, rekey)
	for i := 0; i+1 < len(data); i += 2 {
		id := arena.LargePageID(data[i] >> 4)
		ts := Tick(data[i+1])
		s := &h.st[id]
		switch data[i] & 3 {
		case 0: // (re)enter the cached set with a fresh key
			h.enter(id, ts, data[i]&4 != 0)
		case 1: // leave the cached set: every queued entry goes stale
			s.cached = false
		case 2: // evict
			h.evict(i)
		case 3: // key rises without a push (re-key mode only)
			if rekey && s.cached && !s.expired && ts > s.ts {
				s.ts = ts
			}
		}
		h.check(i)
	}
}

// fuzzBatches is the large-page queue as step 3 sees it: pages enter at
// the current tick in batches — IDs descending, as takeFreshLarge hands
// out returned pages, or shuffled — and the clock moves on, or back (a
// warm restart). Each (op, arg) pair is one op:
//
//	0: a batch of 1 + arg%16 IDs from op>>3, descending;
//	1: the same batch shuffled by arg;
//	2: the clock advances by arg%4 (0: stays);
//	3: the clock goes back to arg%(now+1);
//	4: ID arg enters at the current tick in the other class (expired);
//	5: 1 + arg%4 evictions;
//	6: ID arg leaves the cached set;
//	7: ID arg re-enters at the current tick — a replacement wherever
//	   its entry sits — or, with op>>3 odd, its key rises without a push.
func fuzzBatches(t *testing.T, data []byte) {
	const slots = 160
	h := newSlotted(t, slots, true)
	now := Tick(1)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], int(data[i+1])
		from := int(op>>3) * 5
		id := arena.LargePageID(arg % slots)
		switch op & 7 {
		case 0:
			for k := arg % 16; k >= 0; k-- {
				h.enter(arena.LargePageID((from+k)%slots), now, false)
			}
		case 1:
			n := 1 + arg%16
			perm := make([]int, n)
			for k := range perm {
				perm[k] = k
			}
			x := uint32(arg) | 1
			for k := n - 1; k > 0; k-- {
				x = x*1664525 + 1013904223
				j := int(x>>8) % (k + 1)
				perm[k], perm[j] = perm[j], perm[k]
			}
			for _, k := range perm {
				h.enter(arena.LargePageID((from+k)%slots), now, false)
			}
		case 2:
			now += Tick(arg % 4)
		case 3:
			now = Tick(arg % int(now+1))
		case 4:
			h.enter(id, now, true)
		case 5:
			for k := 0; k <= arg%4; k++ {
				h.evict(i)
			}
		case 6:
			h.st[id].cached = false
		case 7:
			if s := &h.st[id]; op>>3&1 == 1 && s.cached && !s.expired && now > s.ts {
				s.ts = now
			} else {
				h.enter(id, now, false)
			}
		}
		h.check(i)
	}
}

// fuzzTier is the host tier's use of the queue: slotted over a fixed
// set of slots — with heapOnly, its heap sized for all of them, as the
// tier's is, else free to use its run — handed out
// lowest-unused first and reused last-in-first-out after eviction,
// exactly one entry per live page, re-keyed in place by a touch; a
// pinned page that comes up is popped, stashed and re-pushed.
// The reference keeps every snapshot and validates on pop — what the
// tier's own queue did while it was unslotted.
func fuzzTier(t *testing.T, data []byte, heapOnly bool) {
	const slots = 12
	type pageState struct {
		live, pinned bool
		touch        Tick
		seq          int64
	}
	var (
		q     evictQueue[hostEvictEntry, hostTie]
		ref   lazyHeap[hostEvictEntry]
		pages [slots]pageState
		free  []int32
		fresh int32
		next  int64
		nLive int
	)
	if heapOnly {
		q.initSlots(slots, slots)
	} else {
		q.initSlots(slots, 0)
	}
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
		case 0, 1: // store a new page, in the last freed slot or the lowest unused one
			var slot int32
			switch {
			case len(free) > 0:
				slot = free[len(free)-1]
				free = free[:len(free)-1]
			case fresh < slots:
				slot = fresh
				fresh++
			default:
				continue // full: the tier evicts before it stores
			}
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
			slot := int32(pick % slots)
			if p := &pages[slot]; p.live && p.touch < now {
				p.touch = now
				push(hostEvictEntry{touch: now, seq: p.seq, id: slot})
			}
		default: // pin or unpin a live page
			if p := &pages[pick%slots]; p.live {
				p.pinned = !p.pinned
			}
		}
		checkQueue(t, &q)
		if q.len() != nLive {
			t.Fatalf("op %d: %d entries for %d live pages", i, q.len(), nLive)
		}
	}
}
