package sched

import (
	"testing"
	"time"
)

// TestCompare is the table-driven contract of the one shared
// priority/arrival comparator both engine decision sites (admission
// pick and preemption victim) derive from — including the
// equal-priority and equal-arrival ties that used to be encoded twice
// with opposite orderings inside the engine.
func TestCompare(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name string
		a, b ReqInfo
		want int
	}{
		{"higher priority first", ReqInfo{Priority: 5, Arrival: ms(9)}, ReqInfo{Priority: 0, Arrival: ms(1)}, -1},
		{"lower priority last", ReqInfo{Priority: -1, Arrival: ms(1)}, ReqInfo{Priority: 0, Arrival: ms(9)}, 1},
		{"equal priority: earlier arrival first", ReqInfo{Priority: 2, Arrival: ms(1)}, ReqInfo{Priority: 2, Arrival: ms(2)}, -1},
		{"equal priority: later arrival last", ReqInfo{Priority: 2, Arrival: ms(3)}, ReqInfo{Priority: 2, Arrival: ms(2)}, 1},
		{"equal priority equal arrival: full tie", ReqInfo{Priority: 2, Arrival: ms(2)}, ReqInfo{Priority: 2, Arrival: ms(2)}, 0},
		{"zero values: full tie", ReqInfo{}, ReqInfo{}, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("%s: Compare = %d, want %d", c.name, got, c.want)
		}
		// Antisymmetry: swapping the arguments flips the sign.
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("%s: Compare(b, a) = %d, want %d", c.name, got, -c.want)
		}
	}
}

// view builds a test View from waiting and running entries.
func view(waiting, running []ReqInfo) *View {
	for i := range waiting {
		waiting[i].Waiting = true
	}
	return &View{Waiting: waiting, Running: running}
}

func TestFCFSPickIgnoresPriority(t *testing.T) {
	v := view([]ReqInfo{
		{ID: 1, Arrival: 2 * time.Millisecond, Priority: 0},
		{ID: 2, Arrival: 1 * time.Millisecond, Priority: 9},
		{ID: 3, Arrival: 1 * time.Millisecond, Priority: 0},
	}, nil)
	if got := NewFCFS().PickWaiting(v); got != 1 {
		t.Errorf("pick = %d, want 1 (earliest arrival, first on ties, priority ignored)", got)
	}
}

func TestFCFSVictimLatestArrival(t *testing.T) {
	requester := ReqInfo{ID: 9}
	v := view(nil, []ReqInfo{
		{ID: 1, Arrival: 1 * time.Millisecond},
		{ID: 2, Arrival: 5 * time.Millisecond, ScheduledNow: true}, // immune
		{ID: 3, Arrival: 4 * time.Millisecond},
		{ID: 4, Arrival: 4 * time.Millisecond}, // tie: first stays victim
	})
	if got := NewFCFS().VictimFor(requester, v); got != 2 {
		t.Errorf("victim = %d, want 2 (latest non-immune arrival, first on ties)", got)
	}
	// Admission candidates never preempt under FCFS.
	requester.Waiting = true
	if got := NewFCFS().VictimFor(requester, v); got != -1 {
		t.Errorf("admission victim = %d, want -1", got)
	}
}

func TestPrioritySchedulerOrdering(t *testing.T) {
	s := NewPriority()
	v := view([]ReqInfo{
		{ID: 1, Priority: 0, Arrival: 1 * time.Millisecond},
		{ID: 2, Priority: 5, Arrival: 3 * time.Millisecond},
		{ID: 3, Priority: 5, Arrival: 2 * time.Millisecond},
	}, []ReqInfo{
		{ID: 4, Priority: 0, Arrival: 1 * time.Millisecond},
		{ID: 5, Priority: 0, Arrival: 2 * time.Millisecond},
		{ID: 6, Priority: 9, Arrival: 9 * time.Millisecond},
	})
	if got := s.PickWaiting(v); got != 2 {
		t.Errorf("pick = %d, want 2 (highest priority, earlier arrival breaks the tie)", got)
	}
	// Decode-path victim: lowest priority, latest arrival — whatever
	// the requester's own class.
	if got := s.VictimFor(ReqInfo{ID: 9, Priority: 0}, v); got != 1 {
		t.Errorf("decode victim = %d, want 1", got)
	}
	// Admission-path victim: strictly lower classes only.
	if got := s.VictimFor(ReqInfo{ID: 9, Priority: 5, Waiting: true}, v); got != 1 {
		t.Errorf("admission victim = %d, want 1", got)
	}
	if got := s.VictimFor(ReqInfo{ID: 9, Priority: 0, Waiting: true}, v); got != -1 {
		t.Errorf("equal-class admission victim = %d, want -1 (no admission preemption within a class)", got)
	}
}

func TestSJFOrdering(t *testing.T) {
	s := NewSJF()
	v := view([]ReqInfo{
		{ID: 1, Remaining: 100, Arrival: 1 * time.Millisecond},
		{ID: 2, Remaining: 50, Deadline: 0, Arrival: 2 * time.Millisecond},
		{ID: 3, Remaining: 50, Deadline: time.Second, Arrival: 3 * time.Millisecond},
	}, []ReqInfo{
		{ID: 4, Remaining: 10},
		{ID: 5, Remaining: 900},
	})
	if got := s.PickWaiting(v); got != 2 {
		t.Errorf("pick = %d, want 2 (least remaining; a deadline beats none on ties)", got)
	}
	if got := s.VictimFor(ReqInfo{ID: 9}, v); got != 1 {
		t.Errorf("victim = %d, want 1 (longest remaining)", got)
	}
	// Deadline urgency is the absolute instant Arrival+Deadline, not
	// the relative budget: an old request with a loose budget can be
	// more urgent than a fresh one with a tight budget.
	v = view([]ReqInfo{
		{ID: 1, Remaining: 50, Arrival: 1900 * time.Millisecond, Deadline: 1000 * time.Millisecond}, // due at 2900ms
		{ID: 2, Remaining: 50, Arrival: 0, Deadline: 2000 * time.Millisecond},                       // due at 2000ms
	}, nil)
	if got := s.PickWaiting(v); got != 1 {
		t.Errorf("pick = %d, want 1 (earlier absolute deadline despite the looser budget)", got)
	}
}

func TestAdmissionPreemptCapability(t *testing.T) {
	for _, c := range []struct {
		s    Scheduler
		want bool
	}{
		{NewFCFS(), false}, {NewSJF(), false}, {NewFairShare(nil), false},
		{NewPriority(), true},
		{WithPrefillReserve(NewPriority(), 0.25), true},
		{WithPrefillReserve(NewFCFS(), 0.25), false},
	} {
		if got := CanAdmissionPreempt(c.s); got != c.want {
			t.Errorf("CanAdmissionPreempt(%s) = %v, want %v", c.s.Name(), got, c.want)
		}
	}
}

func TestFairShareServesUnderservedGroup(t *testing.T) {
	s := NewFairShare(nil)
	running := []ReqInfo{
		{ID: 1, Group: 100, PromptLen: 400, OutputLen: 100},
		{ID: 2, Group: 100, PromptLen: 400, OutputLen: 100},
		{ID: 3, Group: 200, PromptLen: 100, OutputLen: 50},
	}
	v := view([]ReqInfo{
		{ID: 4, Group: 100, Arrival: 1 * time.Millisecond}, // earlier, but its group is ahead
		{ID: 5, Group: 200, Arrival: 2 * time.Millisecond},
	}, running)
	if got := s.PickWaiting(v); got != 1 {
		t.Errorf("pick = %d, want 1 (group 200 is under-served)", got)
	}
	// Victim comes from the most-served group, latest arrival within.
	if got := s.VictimFor(ReqInfo{ID: 9, Group: 200}, view(nil, []ReqInfo{
		{ID: 1, Group: 100, PromptLen: 400, OutputLen: 100, Arrival: 1 * time.Millisecond},
		{ID: 2, Group: 100, PromptLen: 400, OutputLen: 100, Arrival: 2 * time.Millisecond},
		{ID: 3, Group: 200, PromptLen: 100, OutputLen: 50, Arrival: 9 * time.Millisecond},
	})); got != 1 {
		t.Errorf("victim = %d, want 1 (most-served group, latest arrival)", got)
	}
}

func TestFairShareWeights(t *testing.T) {
	// Group 100 holds twice the tokens but has weight 4: its weighted
	// share is half of group 200's, so it still wins the pick.
	s := NewFairShare(map[int64]float64{100: 4})
	running := []ReqInfo{
		{ID: 1, Group: 100, PromptLen: 800, OutputLen: 0},
		{ID: 2, Group: 200, PromptLen: 400, OutputLen: 0},
	}
	v := view([]ReqInfo{
		{ID: 3, Group: 200, Arrival: 1 * time.Millisecond},
		{ID: 4, Group: 100, Arrival: 2 * time.Millisecond},
	}, running)
	if got := s.PickWaiting(v); got != 1 {
		t.Errorf("pick = %d, want 1 (weight 4 quarters group 100's share)", got)
	}
}

func TestRankWaiting(t *testing.T) {
	waiting := []ReqInfo{
		{ID: 1, Priority: 0, Arrival: 1 * time.Millisecond},
		{ID: 2, Priority: 5, Arrival: 2 * time.Millisecond},
		{ID: 3, Priority: 0, Arrival: 3 * time.Millisecond},
	}
	cand := ReqInfo{ID: 9, Priority: 5, Arrival: 4 * time.Millisecond, Waiting: true}
	if got := NewFCFS().RankWaiting(cand, view(waiting, nil)); got != 3 {
		t.Errorf("fcfs rank = %d, want 3 (arrived last, priority ignored)", got)
	}
	if got := NewPriority().RankWaiting(cand, view(waiting, nil)); got != 1 {
		t.Errorf("priority rank = %d, want 1 (only the earlier priority-5 request is ahead)", got)
	}
}

func TestWithPrefillReserve(t *testing.T) {
	s := WithPrefillReserve(NewFCFS(), 0.25)
	if s.Name() != "fcfs:0.25" {
		t.Errorf("name = %q", s.Name())
	}
	// No prefill work: decode keeps the whole budget.
	idle := view(nil, []ReqInfo{{ID: 1, Phase: PhaseDecode}})
	if got := s.PrefillBudget(idle, 100); got != (Split{Decode: 100, Prefill: 100}) {
		t.Errorf("idle split = %+v", got)
	}
	// Prefill work exists: a quarter of the budget is withheld.
	busy := view([]ReqInfo{{ID: 2}}, nil)
	if got := s.PrefillBudget(busy, 100); got != (Split{Decode: 75, Prefill: 100}) {
		t.Errorf("busy split = %+v", got)
	}
	if WithPrefillReserve(NewFCFS(), 0) != NewFCFS() {
		t.Error("zero reserve must return the scheduler unchanged")
	}
}

// TestSchedulerNames pins the names reports and scorecards print.
func TestSchedulerNames(t *testing.T) {
	for _, c := range []struct {
		s    Scheduler
		want string
	}{
		{NewFCFS(), "fcfs"}, {NewPriority(), "priority"}, {NewSJF(), "sjf"},
		{NewFairShare(nil), "fairshare"}, {WithPrefillReserve(NewSJF(), 0.25), "sjf:0.25"},
	} {
		if c.s.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.s.Name(), c.want)
		}
	}
}
