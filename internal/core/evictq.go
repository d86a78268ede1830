package core

import "slices"

// evictQueue is the one priority queue behind every eviction order in
// the package: cached small pages per group, evictable large pages and
// host-tier pages. It pops the entry that is minimal under E.before,
// and allocates nothing once its arrays have grown.
//
// Entries are snapshots of a key that lives elsewhere (page metadata),
// validated by the caller on pop: an entry whose page moved on is
// skipped or re-pushed with its fresh key. Every before is a strict
// total order over unique slots, so the first valid entry popped is
// the minimum valid entry however many stale ones sit around it — and
// any correct priority queue pops the same one.
//
// The order is a segment key (evictKey: class, then tick) and, within
// one key, a tie key (T). Almost every push is at the current tick, so
// the queue keeps two parts. The run is a ring of tick segments in key
// order; each holds only its entries' tie keys (for a large page, its
// 4-byte ID). The last segment is open: a push at its key is appended
// unsorted, in O(1). A push at a newer key closes it with one in-place
// sort of its tie keys and opens the next. Any older key — a warm
// restart's reset clock, a dirty max re-keyed lower, a pinned tier page
// put back — goes to the fallback heap, a binary min-heap of whole
// entries. pop takes the smaller of the run's head and the heap's top.
//
// The queue is slotted over a dense ID space (initSlots): it keeps one
// entry per slot, and a push for a slot that already has one replaces
// it — in place in the heap; by a swap with the last entry in the open
// segment; in a closed segment the old entry is left dead, which pos
// tells (it no longer points at it), skipped by pop and dropped when
// the ring is compacted. The run and heap arrays together never hold
// more entries than there are slots. Each grows up to what the other
// leaves — the heap by doubling, the ring and its segments fourfold, so
// that a queue filling all 16,384 slots of a replica allocates no more
// often than the heap did alone, the ring never past seven eighths of
// the slots — and a heap that needs slots the ring holds shrinks the
// ring to its live entries first. A ring at its bound is compacted when
// that frees an eighth of it; until then a push it has no room for goes
// to the heap, which always has an eighth of the slots to grow into. So
// a compaction reads the ring once per ring/8 entries it reclaims, not
// once per dead entry — unless the queue holds so nearly every slot's
// entry that the heap is full too. A queue must be slotted before its
// first push.
type evictQueue[E evictEntry[E, T], T evictTie[E, T]] struct {
	// pos[slot] is 1 + the entry's ring position (> 0), −1 − its heap
	// index (< 0), or 0: the slot has no entry.
	pos []int32
	// run is the ring: n positions (live entries and dead ones) from
	// position head, whose absolute index is base; live of them are
	// live. Absolute indices only grow, so segment starts stay valid as
	// the head moves.
	run           []T
	head, n, live int
	base          int
	segs          []segment
	first         int  // segs[first] holds the head
	open          bool // the last segment is unsorted and takes appends
	heap          []E
	// scanned counts the ring positions compactions have read, over the
	// queue's life: their whole cost, which the tests bound per push.
	scanned int
}

// evictKey is an entry's segment key: its class (0 orders first:
// expired KV, §3.3), then its tick.
type evictKey struct {
	tick  Tick
	class uint8
}

func (a evictKey) before(b evictKey) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	return a.tick < b.tick
}

// evictEntry is a queue's entry type: a strict total order that is the
// segment key, then the tie key.
type evictEntry[E, T any] interface {
	before(E) bool
	key() evictKey
	tie() T
	slot() int
}

// evictTie is the part of an entry the run stores.
type evictTie[E, T any] interface {
	cmp(T) int
	slot() int
	entry(evictKey) E
}

// segment is one key's stretch of the run, from absolute index start to
// the next segment's start (the last: to the ring's end), 16 bytes
// (TestStructSizes pins it). start fits an int32 because the head's
// absolute index never reaches rebaseAt (advance), and a queue has
// fewer slots than that.
type segment struct {
	tick  Tick
	start int32
	class uint8
}

// rebaseAt is the absolute index at which the run's head is rebased to
// 0 (advance): one compaction, a read of the ring, per 2^30 pops.
const rebaseAt = 1 << 30

func (s *segment) key() evictKey { return evictKey{s.tick, s.class} }

// initSlots makes the queue slotted over IDs [0, n), its heap sized for
// heapEntries. A queue whose heap takes every slot has no room left
// for a run and is a plain heap: the host tier's, which runs full and
// re-keys entries in place on every restore hit (about a million a
// pass on online_overload), where a run would leave each re-keyed
// entry dead in a full ring.
func (q *evictQueue[E, T]) initSlots(n, heapEntries int) {
	check(n < rebaseAt, "an eviction queue over %d slots", n)
	q.pos = make([]int32, n)
	q.heap = make([]E, 0, heapEntries)
}

// clear empties the queue in place: the state initSlots leaves, in its
// slot and heap arrays.
func (q *evictQueue[E, T]) clear() {
	clear(q.pos)
	*q = evictQueue[E, T]{pos: q.pos, heap: q.heap[:0]}
}

func (q *evictQueue[E, T]) len() int { return q.live + len(q.heap) }

// push adds e, replacing the entry queued for e's slot, if any.
//
//jenga:hotpath
func (q *evictQueue[E, T]) push(e E) {
	s := e.slot()
	switch p := q.pos[s]; {
	case p < 0:
		i := int(-p) - 1
		if !q.toRun(e.key()) || !q.runRoom() {
			q.heap[i] = e
			if !q.down(i) {
				q.up(i)
			}
			return
		}
		q.heapRemove(i)
	case p > 0:
		q.runRemove(int(p) - 1)
	}
	if q.toRun(e.key()) && q.runRoom() {
		q.appendRun(e)
		return
	}
	q.heapPush(e)
}

// pop removes and returns the minimum entry; the queue must be
// non-empty.
//
//jenga:hotpath
func (q *evictQueue[E, T]) pop() E {
	if q.live > 0 {
		q.skipDead()
		t := q.run[q.head]
		e := t.entry(q.segs[q.first].key())
		if len(q.heap) == 0 || !q.heap[0].before(e) {
			q.pos[t.slot()] = 0
			q.live--
			if q.live == 0 {
				q.reset()
			} else {
				q.advance()
			}
			return e
		}
	}
	n := len(q.heap) - 1
	e := q.heap[0]
	q.heapSwap(0, n)
	q.heap = q.heap[:n]
	q.pos[e.slot()] = 0
	q.down(0)
	return e
}

// --- the run ----------------------------------------------------------

// toRun reports whether a key belongs in the run: it is empty, the key
// is newer than the last segment's, or equal to the open segment's.
func (q *evictQueue[E, T]) toRun(k evictKey) bool {
	if q.live == 0 {
		return true
	}
	last := q.segs[len(q.segs)-1].key()
	return last.before(k) || (q.open && last == k)
}

// phys is the ring position of the entry l places after the head.
func (q *evictQueue[E, T]) phys(l int) int {
	if p := q.head + l; p < len(q.run) {
		return p
	}
	return q.head + l - len(q.run)
}

// runRoom makes room for one more position in the ring — by growing it
// within the slots the heap leaves (an eighth at least), else by
// compacting its dead entries out — and reports whether it could. A
// ring at its bound is compacted when that frees an eighth of it; with
// fewer dead entries the push goes to the heap instead, as long as the
// heap has a slot for it, since compacting the ring for each dead entry
// would read the whole ring per push. Only a queue holding nearly every
// slot's entry leaves the heap no slot: then the ring is compacted for
// what it has.
func (q *evictQueue[E, T]) runRoom() bool {
	if q.n < len(q.run) {
		return true
	}
	if c := min(max(4*len(q.run), 256), len(q.pos)-max(cap(q.heap), len(q.pos)/8)); c > len(q.run) {
		q.compact(c)
		return true
	}
	if dead := q.n - q.live; dead > 0 && (8*dead >= len(q.run) || len(q.heap) >= len(q.pos)-len(q.run)) {
		q.compact(len(q.run))
		return true
	}
	return false
}

// appendRun appends e to the open segment, or closes it and opens one
// at e's key; toRun and runRoom have admitted e.
//
//jenga:hotpath
func (q *evictQueue[E, T]) appendRun(e E) {
	k := e.key()
	if !q.open || q.segs[len(q.segs)-1].key() != k {
		if q.open {
			q.sortOpen()
		}
		if len(q.segs) == cap(q.segs) {
			q.segRoom()
		}
		q.segs = append(q.segs, segment{tick: k.tick, start: int32(q.base + q.n), class: k.class})
		q.open = true
	}
	p := q.phys(q.n)
	q.run[p] = e.tie()
	q.pos[e.slot()] = int32(p + 1)
	q.n++
	q.live++
}

// segRoom makes room for one more segment: by dropping the ones the
// head has passed, else by growing fourfold — a segment holds at least
// one ring position, so the ring's length bounds them.
func (q *evictQueue[E, T]) segRoom() {
	if q.first > 0 {
		q.segs = q.segs[:copy(q.segs, q.segs[q.first:])]
		q.first = 0
		return
	}
	//jenga:alloc-ok segment growth: at most log₄ of the ring's length steps
	q.segs = append(make([]segment, 0, min(max(4*cap(q.segs), 32), len(q.run))), q.segs...)
}

// runRemove takes the live entry at ring position p out of the run:
// the open segment swaps its last entry in, a closed one leaves p dead.
func (q *evictQueue[E, T]) runRemove(p int) {
	q.pos[q.run[p].slot()] = 0
	q.live--
	if q.live == 0 {
		q.reset()
		return
	}
	last := &q.segs[len(q.segs)-1]
	if !q.open || q.absolute(p) < int(last.start) {
		return
	}
	end := q.phys(q.n - 1)
	if p != end {
		q.run[p] = q.run[end]
		q.pos[q.run[p].slot()] = int32(p + 1)
	}
	q.n--
	if int(last.start) == q.base+q.n { // the open segment emptied
		q.segs = q.segs[:len(q.segs)-1]
		q.open = false
	}
}

// absolute is ring position p's absolute index.
func (q *evictQueue[E, T]) absolute(p int) int {
	if p >= q.head {
		return q.base + p - q.head
	}
	return q.base + p + len(q.run) - q.head
}

// skipDead advances the head to the first live entry, sorting the open
// segment first when the head reaches it; the run must hold one.
func (q *evictQueue[E, T]) skipDead() {
	for {
		if q.open && q.base >= int(q.segs[len(q.segs)-1].start) {
			q.sortOpen()
		}
		if q.pos[q.run[q.head].slot()] == int32(q.head+1) {
			return
		}
		q.advance()
	}
}

// advance drops the head position.
func (q *evictQueue[E, T]) advance() {
	if q.head++; q.head == len(q.run) {
		q.head = 0
	}
	q.base++
	q.n--
	for q.first+1 < len(q.segs) && int(q.segs[q.first+1].start) <= q.base {
		q.first++
	}
	if q.base == rebaseAt {
		q.compact(len(q.run))
	}
}

// reset empties a run that holds no live entry, dead ones included.
func (q *evictQueue[E, T]) reset() {
	q.head, q.n, q.base = 0, 0, 0
	q.segs, q.first, q.open = q.segs[:0], 0, false
}

// sortOpen closes the open segment: its tie keys are sorted in place
// (it holds no dead entry). A segment that wraps round the ring's end
// is sorted in the ring's free stretch, which then follows it in one
// piece, and copied back — or, with too little free, the ring is
// compacted so that it does not wrap.
func (q *evictQueue[E, T]) sortOpen() {
	last := &q.segs[len(q.segs)-1]
	k := q.base + q.n - int(last.start)
	p := q.phys(int(last.start) - q.base)
	if wrap := p + k - len(q.run); wrap > 0 {
		if len(q.run)-q.n >= k {
			tmp := q.run[wrap : wrap+k]
			copy(tmp[copy(tmp, q.run[p:]):], q.run[:wrap])
			sortTies(tmp)
			copy(q.run[:wrap], tmp[copy(q.run[p:], tmp):])
			q.place(p, len(q.run))
			q.place(0, wrap)
			q.open = false
			return
		}
		q.compact(len(q.run))
		p = int(q.segs[len(q.segs)-1].start)
	}
	sortTies(q.run[p : p+k])
	q.place(p, p+k)
	q.open = false
}

// sortTies sorts a segment's tie keys.
func sortTies[T evictTie[E, T], E any](s []T) {
	if ids, ok := any(s).([]largeSlot); ok {
		slices.Sort(ids) // the large queue's: no compare through the tie's method
		return
	}
	slices.SortFunc(s, T.cmp)
}

// place points pos at ring positions [lo, hi).
func (q *evictQueue[E, T]) place(lo, hi int) {
	for p := lo; p < hi; p++ {
		q.pos[q.run[p].slot()] = int32(p + 1)
	}
}

// compact rewrites the ring without its dead entries, head first from
// position 0, into an array of c positions (a new one if c is not the
// ring's length), and rebases the segments, dropping any left empty.
func (q *evictQueue[E, T]) compact(c int) {
	q.scanned += q.n
	w := 0
	segs := q.segs[:0]
	for j := q.first; j < len(q.segs); j++ {
		s := q.segs[j]
		end := q.n
		if j+1 < len(q.segs) {
			end = int(q.segs[j+1].start) - q.base
		}
		from := w
		for l := max(int(s.start)-q.base, 0); l < end; l++ {
			p := q.phys(l)
			if t := q.run[p]; q.pos[t.slot()] == int32(p+1) {
				q.run[q.phys(w)] = t
				w++
			}
		}
		if w > from { // the open segment holds no dead entry: never dropped
			s.start = int32(from)
			segs = append(segs, s)
		}
	}
	// Rotate the compacted ring so that its head sits at position 0.
	if q.head > 0 {
		slices.Reverse(q.run[:q.head])
		slices.Reverse(q.run[q.head:])
		slices.Reverse(q.run)
	}
	if c != len(q.run) {
		//jenga:alloc-ok ring growth: at most log₄ len(pos) steps over the queue's life
		q.run = append(make([]T, 0, c), q.run[:w]...)[:c]
	}
	q.place(0, w)
	q.head, q.n, q.base = 0, w, 0
	q.segs, q.first = segs, 0
}

// --- the fallback heap ---------------------------------------------------

// heapPush adds e to the heap, growing it within the slots the ring
// leaves (shrinking the ring to its entries if it must).
func (q *evictQueue[E, T]) heapPush(e E) {
	if len(q.heap) == cap(q.heap) {
		q.heapRoom()
	}
	q.heap = append(q.heap, e)
	q.heapPlace(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

func (q *evictQueue[E, T]) heapRoom() {
	c := min(max(2*cap(q.heap), 16), len(q.pos)-len(q.run))
	if c <= cap(q.heap) {
		// The ring holds the spare slots: give it exactly its entries.
		q.compact(q.live)
		c = min(max(2*cap(q.heap), 16), len(q.pos)-len(q.run))
	}
	//jenga:alloc-ok heap growth: at most log₂ len(pos) doublings, or a ring shrunk on a warm restart
	q.heap = append(make([]E, 0, c), q.heap...)
}

func (q *evictQueue[E, T]) heapRemove(i int) {
	n := len(q.heap) - 1
	q.pos[q.heap[i].slot()] = 0
	if i != n {
		q.heap[i] = q.heap[n]
		q.heapPlace(i)
	}
	q.heap = q.heap[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
}

func (q *evictQueue[E, T]) heapPlace(i int) { q.pos[q.heap[i].slot()] = int32(-i - 1) }

func (q *evictQueue[E, T]) heapSwap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heapPlace(i)
	q.heapPlace(j)
}

func (q *evictQueue[E, T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.heap[j].before(q.heap[i]) {
			return
		}
		q.heapSwap(i, j)
		j = i
	}
}

// down sifts heap[i0] toward the leaves, reporting whether it moved.
func (q *evictQueue[E, T]) down(i0 int) bool {
	n := len(q.heap)
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.heap[j2].before(q.heap[j]) {
			j = j2
		}
		if !q.heap[j].before(q.heap[i]) {
			break
		}
		q.heapSwap(i, j)
		i = j
	}
	return i > i0
}
