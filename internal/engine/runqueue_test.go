package engine

import (
	"math/rand"
	"testing"
)

// TestRunQueueMatchesSlice drives a runQueue and a plain slice through
// the same random operations — the slice with the reslice-and-append
// forms the queue replaced — and requires the same order throughout,
// that taking from a queue down to empty keeps its array, and that a
// drained slot no longer references its run.
func TestRunQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q runQueue
	var ref []*run
	for op := 0; op < 20000; op++ {
		r := &run{computed: op}
		switch k := rng.Intn(10); {
		case k < 3:
			q.pushBack(r)
			ref = append(ref, r)
		case k < 5:
			q.pushFront(r)
			ref = append([]*run{r}, ref...)
		case k == 5:
			i := rng.Intn(len(ref) + 1)
			q.insert(i, r)
			ref = append(ref[:i], append([]*run{r}, ref[i:]...)...)
		case k < 9 && len(ref) > 0:
			if q.front() != ref[0] {
				t.Fatalf("op %d: front differs", op)
			}
			if got := q.popFront(); got != ref[0] {
				t.Fatalf("op %d: popped run %d, want %d", op, got.computed, ref[0].computed)
			}
			ref = ref[1:]
		case len(ref) > 0:
			i := rng.Intn(len(ref))
			q.remove(i)
			ref = append(ref[:i:i], ref[i+1:]...)
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, q.len(), len(ref))
		}
		for i, r := range q.items() {
			if r != ref[i] {
				t.Fatalf("op %d: position %d holds run %d, want %d", op, i, r.computed, ref[i].computed)
			}
		}
		for i, r := range q.buf[:cap(q.buf)] {
			if (i < q.head || i >= len(q.buf)) && r != nil {
				t.Fatalf("op %d: vacated slot %d still references run %d", op, i, r.computed)
			}
		}
	}
	for q.len() > 0 {
		q.popFront()
	}
	if cap(q.buf) == 0 || q.head != 0 {
		t.Fatalf("drained queue: cap %d, head %d; want its array kept and the head back at 0", cap(q.buf), q.head)
	}
	if testing.Short() {
		return // allocation accounting is not meaningful under -short/-race runs
	}
	if n := testing.AllocsPerRun(100, func() { q.pushBack(&run{}); q.popFront() }); n > 1 {
		t.Fatalf("push and pop on a drained queue allocates %.0f objects, want the run alone", n)
	}
}
