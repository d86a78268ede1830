package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"jenga/internal/sched"
	"jenga/internal/workload"
)

// queue is an ordered list in one backing array, live entries at
// buf[head:]: the arrival (pending) queue and both halves of the waiting
// queue. Taking from the front advances head instead of reslicing the
// array away, so the capacity survives a queue that keeps draining to
// empty — a short queue then costs no allocation per request — and
// putting an entry back at the front (admission rollback, preemption)
// refills the slot a pop vacated instead of building a new queue around
// it. Vacated slots are zeroed, so a queue of runs keeps no run alive.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

// items is the queue in order, front first; valid until the next
// mutation.
func (q *queue[T]) items() []T { return q.buf[q.head:] }

// front is the first entry of a non-empty queue.
func (q *queue[T]) front() T { return q.buf[q.head] }

//jenga:hotpath
func (q *queue[T]) pushBack(x T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full with a vacated front: slide down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// grow makes room for n more entries: none when the array has it,
// vacated front slots included (pushBack slides into them), else one
// growth for all n.
func (q *queue[T]) grow(n int) {
	if cap(q.buf)-q.len() < n {
		q.buf = slices.Grow(q.buf, n)
	}
}

//jenga:hotpath
func (q *queue[T]) pushFront(x T) {
	if q.head == 0 {
		// No vacated slot: open a gap a quarter of the queue long, so a
		// burst of preemptions shifts the queue once, not once each.
		n := len(q.buf)
		gap := n/4 + 1
		q.buf = append(q.buf, make([]T, gap)...)
		copy(q.buf[gap:], q.buf[:n])
		clear(q.buf[:gap])
		q.head = gap
	}
	q.head--
	q.buf[q.head] = x
}

//jenga:hotpath
func (q *queue[T]) popFront() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

// insert places x before position i of items().
//
//jenga:hotpath
func (q *queue[T]) insert(i int, x T) {
	var zero T
	q.pushBack(zero)
	it := q.items()
	copy(it[i+1:], it[i:])
	it[i] = x
}

// remove deletes position i of items().
//
//jenga:hotpath
func (q *queue[T]) remove(i int) {
	if i == 0 {
		q.popFront()
		return
	}
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1)
}

// reset empties the queue, keeping its array.
func (q *queue[T]) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}

// batch is the part of Run's request set that has not arrived yet, read
// in the caller's slice: a request of it costs the engine nothing until
// its arrival, when admitArrivals takes a run for it. Requests are taken
// in stable arrival order — the order Submit-all would have queued them
// in — through order, the positions of reqs in that order, which is nil
// while reqs is that order itself and none was taken out of turn
// (detach), so a sorted batch costs no index.
type batch struct {
	reqs  []workload.Request
	order []int32
	// next is how many requests, in arrival order, were taken.
	next int
}

// newBatch is reqs as a batch, indexed only when not sorted by arrival.
func newBatch(reqs []workload.Request) batch {
	b := batch{reqs: reqs}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			b.index()
			slices.SortStableFunc(b.order, func(x, y int32) int { return cmp.Compare(reqs[x].Arrival, reqs[y].Arrival) })
			break
		}
	}
	return b
}

// index makes order explicit: reqs' positions as they stand.
func (b *batch) index() {
	b.order = make([]int32, len(b.reqs))
	for i := range b.order {
		b.order[i] = int32(i)
	}
}

// len is how many requests are left to take.
func (b *batch) len() int {
	if b.order != nil {
		return len(b.order) - b.next
	}
	return len(b.reqs) - b.next
}

// at is the i-th request left to take, in arrival order.
func (b *batch) at(i int) *workload.Request {
	i += b.next
	if b.order != nil {
		i = int(b.order[i])
	}
	return &b.reqs[i]
}

// pop takes the first request left; remove takes the i-th out of turn.
func (b *batch) pop() { b.next++ }

func (b *batch) remove(i int) {
	if b.order == nil {
		b.index()
	}
	b.order = slices.Delete(b.order, b.next+i, b.next+i+1)
}

// arriving counts the requests left whose arrival is at or before now —
// with k ≥ 0, those of them whose own part takes a class-k prompt buffer.
func (b *batch) arriving(now time.Duration, k int) int {
	count := 0
	for i := range b.len() {
		req := b.at(i)
		if req.Arrival > now {
			break
		}
		if inClass(req, k) {
			count++
		}
	}
	return count
}

// waitQueue is the waiting queue: its runs, and beside them, in the same
// order, the summaries the scheduler's View shows of them. The
// summaries are written at the queue's own transitions — a push (an
// arrival, a migration in, a preemption, an admission rolled back) and
// a removal (an admission, a failure, an extraction) — which is
// correct because nothing a summary reads changes while its run waits
// (run.info). So a scheduler call costs nothing per waiting request,
// whatever the queue's depth, and the View's Waiting is the queue's own
// array: read-only. The running set does the same (runSet).
type waitQueue struct {
	runs queue[*run]
	info queue[sched.ReqInfo]
}

func (q *waitQueue) len() int { return q.runs.len() }

// items is the runs in queue order; valid until the next mutation.
func (q *waitQueue) items() []*run { return q.runs.items() }

// front is the first run of a non-empty queue.
func (q *waitQueue) front() *run { return q.runs.front() }

// infos is the runs' summaries in queue order; valid until the next
// mutation.
func (q *waitQueue) infos() []sched.ReqInfo { return q.info.items() }

//jenga:hotpath
func (q *waitQueue) pushBack(r *run) {
	q.runs.pushBack(r)
	q.info.pushBack(r.info())
}

// grow makes room for n more runs without regrowing.
func (q *waitQueue) grow(n int) {
	q.runs.grow(n)
	q.info.grow(n)
}

//jenga:hotpath
func (q *waitQueue) pushFront(r *run) {
	q.runs.pushFront(r)
	q.info.pushFront(r.info())
}

// remove deletes position i of items().
//
//jenga:hotpath
func (q *waitQueue) remove(i int) {
	q.runs.remove(i)
	q.info.remove(i)
}

// reset empties the queue, keeping its arrays.
func (q *waitQueue) reset() {
	q.runs.reset()
	q.info.reset()
}

// block marks position i of items() as blocked for the rest of the
// admission pass (sched.ReqInfo.Blocked); unblock clears every mark.
//
//jenga:hotpath
func (q *waitQueue) block(i int) { q.info.items()[i].Blocked = true }

//jenga:hotpath
func (q *waitQueue) unblock() {
	infos := q.info.items()
	for i := range infos {
		infos[i].Blocked = false
	}
}

// mustMatch panics unless every summary equals a fresh one of its run,
// admission-pass marks aside: the jengadebug check that the queue's
// transitions are all it takes to keep the View up to date, and that no
// policy wrote to it.
func (q *waitQueue) mustMatch() {
	runs, infos := q.runs.items(), q.info.items()
	if len(runs) != len(infos) {
		panic(fmt.Sprintf("engine: %d waiting runs, %d summaries", len(runs), len(infos)))
	}
	for i, r := range runs {
		got := infos[i]
		got.Blocked = false
		if fresh := r.info(); got != fresh {
			panic(fmt.Sprintf("engine: waiting position %d summarized as %+v, its run now reads %+v", i, infos[i], fresh))
		}
	}
}

// runSet is the running set: its runs in running order and beside them,
// in the same order, the summaries the scheduler's View shows of them.
// Unlike a waiting run, a running one changes while it runs — it is
// scheduled, it commits, it moves from prefill to decode, a fork labels
// its group — so the engine rewrites a run's summary where it changes,
// reaching it through run.slot, the run's position here. A scheduler
// call then costs nothing per running request, and the View's Running
// is the set's own array: read-only.
type runSet struct {
	runs []*run
	info []sched.ReqInfo
}

func (s *runSet) len() int { return len(s.runs) }

// items is the runs in running order; valid until the next mutation.
func (s *runSet) items() []*run { return s.runs }

// infos is the runs' summaries in running order; valid until the next
// mutation.
func (s *runSet) infos() []sched.ReqInfo { return s.info }

// add appends r, summarized as of step.
//
//jenga:hotpath
func (s *runSet) add(r *run, step int) {
	r.slot = int32(len(s.runs))
	s.runs = append(s.runs, r)
	s.info = append(s.info, r.runningInfo(step))
}

// of is r's summary; r must be in the set.
//
//jenga:hotpath
func (s *runSet) of(r *run) *sched.ReqInfo { return &s.info[r.slot] }

// remove takes r out of the set; the runs after it move up a place.
//
//jenga:hotpath
func (s *runSet) remove(r *run) {
	i := int(r.slot)
	s.runs = slices.Delete(s.runs, i, i+1)
	s.info = slices.Delete(s.info, i, i+1)
	for j := i; j < len(s.runs); j++ {
		s.runs[j].slot = int32(j)
	}
}

// reset empties the set, keeping its arrays.
func (s *runSet) reset() {
	clear(s.runs)
	s.runs, s.info = s.runs[:0], s.info[:0]
}

// mustMatch panics unless every run sits at its slot and every summary
// equals a fresh one of its run as of step: the jengadebug check that
// the engine rewrites a running run's summary wherever the run changes,
// and that no policy wrote to it.
func (s *runSet) mustMatch(step int) {
	if len(s.runs) != len(s.info) {
		panic(fmt.Sprintf("engine: %d running runs, %d summaries", len(s.runs), len(s.info)))
	}
	for i, r := range s.runs {
		if int(r.slot) != i {
			panic(fmt.Sprintf("engine: running position %d holds request %d, whose slot reads %d", i, r.req.ID, r.slot))
		}
		if fresh := r.runningInfo(step); s.info[i] != fresh {
			panic(fmt.Sprintf("engine: running position %d summarized as %+v, its run now reads %+v", i, s.info[i], fresh))
		}
	}
}
