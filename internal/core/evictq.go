package core

// evictQueue is the one priority queue behind every eviction order in
// the package: cached small pages per group, evictable large pages and
// host-tier pages. It is a typed binary min-heap on E.before — no
// interface boxing, so push and pop allocate nothing once the backing
// array has grown — with the same sift order as container/heap.
//
// Entries are snapshots of a key that lives elsewhere (page metadata),
// validated by the caller on pop: an entry whose page moved on is
// skipped or re-pushed with its fresh key. Every before is a strict
// total order ending in the entry's ID, so the first valid entry
// popped is the minimum valid entry however many stale ones sit around
// it.
//
// The queue is slotted over a dense ID space (initSlots): it keeps one
// entry per slot and a push for a slot that already has one replaces
// it in place, so the queue never outgrows the ID space — and since it
// knows that bound, its array grows by doubling up to it, never past:
// all the arrays it ever abandons together are smaller than the one it
// ends with, where append's 1.25× steps leave four to five times as
// much behind. A queue must be slotted before its first push.
type evictQueue[E interface{ before(E) bool }] struct {
	h []E
	// pos[slot] is the entry's index in h plus one; 0 means the slot
	// has no entry.
	pos  []int32
	slot func(E) int
}

// initSlots makes the queue slotted over IDs [0, n), its array sized
// for the first entries pushes (past them it grows by doubling).
func (q *evictQueue[E]) initSlots(n, entries int, slot func(E) int) {
	q.pos = make([]int32, n)
	q.h = make([]E, 0, entries)
	q.slot = slot
}

func (q *evictQueue[E]) len() int { return len(q.h) }

// push adds e, or — with an entry already queued for e's slot —
// overwrites that entry and restores heap order around it.
//
//jenga:hotpath
func (q *evictQueue[E]) push(e E) {
	if p := q.pos[q.slot(e)]; p != 0 {
		i := int(p) - 1
		q.h[i] = e
		if !q.down(i) {
			q.up(i)
		}
		return
	}
	if len(q.h) == cap(q.h) {
		//jenga:alloc-ok heap growth: at most log₂ len(pos) doublings over the queue's life
		q.h = append(make([]E, 0, min(max(2*cap(q.h), 64), len(q.pos))), q.h...)
	}
	q.h = append(q.h, e)
	q.place(len(q.h) - 1)
	q.up(len(q.h) - 1)
}

// pop removes and returns the minimum entry; the queue must be
// non-empty.
//
//jenga:hotpath
func (q *evictQueue[E]) pop() E {
	n := len(q.h) - 1
	q.swap(0, n)
	e := q.h[n]
	q.h = q.h[:n]
	q.pos[q.slot(e)] = 0
	q.down(0)
	return e
}

func (q *evictQueue[E]) place(i int) { q.pos[q.slot(q.h[i])] = int32(i + 1) }

func (q *evictQueue[E]) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.place(i)
	q.place(j)
}

func (q *evictQueue[E]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.h[j].before(q.h[i]) {
			return
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts h[i0] toward the leaves, reporting whether it moved.
func (q *evictQueue[E]) down(i0 int) bool {
	n := len(q.h)
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.h[j2].before(q.h[j]) {
			j = j2
		}
		if !q.h[j].before(q.h[i]) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}
