package engine

import "slices"

// runQueue is the arrival (pending) and waiting queue: an ordered list
// of runs in one backing array, live entries at buf[head:]. Taking from
// the front advances head instead of reslicing the array away, so the
// capacity survives a queue that keeps draining to empty — a short
// queue then costs no allocation per request — and putting a run back
// at the front (admission rollback, preemption) refills the slot a pop
// vacated instead of building a new queue around it.
type runQueue struct {
	buf  []*run
	head int
}

func (q *runQueue) len() int { return len(q.buf) - q.head }

// items is the queue in order, front first; valid until the next
// mutation.
func (q *runQueue) items() []*run { return q.buf[q.head:] }

// front is the first run of a non-empty queue.
func (q *runQueue) front() *run { return q.buf[q.head] }

//jenga:hotpath
func (q *runQueue) pushBack(r *run) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full with a vacated front: slide down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, r)
}

//jenga:hotpath
func (q *runQueue) pushFront(r *run) {
	if q.head == 0 {
		// No vacated slot: open a gap a quarter of the queue long, so a
		// burst of preemptions shifts the queue once, not once each.
		n := len(q.buf)
		gap := n/4 + 1
		q.buf = append(q.buf, make([]*run, gap)...)
		copy(q.buf[gap:], q.buf[:n])
		clear(q.buf[:gap])
		q.head = gap
	}
	q.head--
	q.buf[q.head] = r
}

//jenga:hotpath
func (q *runQueue) popFront() *run {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return r
}

// insert places r before position i of items().
//
//jenga:hotpath
func (q *runQueue) insert(i int, r *run) {
	q.pushBack(nil)
	it := q.items()
	copy(it[i+1:], it[i:])
	it[i] = r
}

// remove deletes position i of items().
//
//jenga:hotpath
func (q *runQueue) remove(i int) {
	if i == 0 {
		q.popFront()
		return
	}
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1)
}

// reset empties the queue, keeping its array.
func (q *runQueue) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}
