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

// TestPickWithBlockedMarks is each built-in's PickWaiting contract under
// an admission pass's marks. Without marks every built-in picks what it
// always did. With marks, fcfs, sjf and fairshare keep their strict
// pick — a marked one ends the pass — while priority passes its marked
// candidates for the earliest unmarked one of the highest marked class
// or above, and never for a lower class.
func TestPickWithBlockedMarks(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Queue order is not arrival order; Remaining orders sjf; groups
	// 100 (heavily served) and 200 order fairshare.
	queue := func() []ReqInfo {
		return []ReqInfo{
			{ID: 0, Priority: 1, Arrival: ms(4), Remaining: 40, Group: 100},
			{ID: 1, Priority: 2, Arrival: ms(2), Remaining: 90, Group: 100},
			{ID: 2, Priority: 0, Arrival: ms(1), Remaining: 10, Group: 200},
			{ID: 3, Priority: 2, Arrival: ms(5), Remaining: 60, Group: 200},
			{ID: 4, Priority: 1, Arrival: ms(3), Remaining: 20, Group: 200},
			{ID: 5, Priority: 2, Arrival: ms(6), Remaining: 30, Group: 100},
		}
	}
	running := []ReqInfo{{ID: 9, Group: 100, PromptLen: 500, OutputLen: 100}}
	policies := []Scheduler{NewFCFS(), NewPriority(), NewSJF(), NewFairShare()}
	// unmarked is each policy's pick with no marks: the parent's answer.
	unmarked := map[string]int{"fcfs": 2, "priority": 1, "sjf": 2, "fairshare": 3}
	for _, tc := range []struct {
		name   string
		marked []int
		// want is priority's pick; the strict policies must return their
		// unmarked pick whatever is marked.
		want int
	}{
		{"none", nil, 1},
		{"head of the top class", []int{1}, 3},
		{"two of the top class", []int{1, 3}, 5},
		{"the whole top class", []int{1, 3, 5}, 1},                    // nothing of class ≥ 2 fits: the pass ends
		{"a lower class only", []int{4}, 1},                           // the top class was never tried
		{"top and lower classes", []int{1, 3, 5, 4}, 1},               // class 1 stays behind class 2's marks
		{"every entry", []int{0, 1, 2, 3, 4, 5}, 1},                   // the pass ends at the strict pick
		{"fcfs's and sjf's pick", []int{2}, 1},                        // a lower class for priority
		{"second class after the first blocks", []int{1, 3, 5, 0}, 1}, // an unmarked class-1 entry is below the floor
	} {
		for _, s := range policies {
			v := view(queue(), running)
			for _, i := range tc.marked {
				v.Waiting[i].Blocked = true
			}
			got := s.PickWaiting(v)
			want := unmarked[s.Name()]
			if s.Name() == "priority" {
				want = tc.want
			}
			if got != want {
				t.Errorf("%s, marks %v: pick = %d, want %d", s.Name(), tc.marked, got, want)
			}
			if s.Name() == "priority" && len(tc.marked) > 0 && !v.Waiting[got].Blocked {
				top := -1 << 31
				for _, i := range tc.marked {
					top = max(top, v.Waiting[i].Priority)
				}
				if v.Waiting[got].Priority < top {
					t.Errorf("priority, marks %v: picked class %d below the highest marked class %d", tc.marked, v.Waiting[got].Priority, top)
				}
			}
		}
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
		{NewFCFS(), false}, {NewSJF(), false}, {NewFairShare(), false},
		{NewPriority(), true},
	} {
		if got := CanAdmissionPreempt(c.s); got != c.want {
			t.Errorf("CanAdmissionPreempt(%s) = %v, want %v", c.s.Name(), got, c.want)
		}
	}
}

func TestFairShareServesUnderservedGroup(t *testing.T) {
	s := NewFairShare()
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
	// Every group weighs the same: group 100 holds twice group 200's
	// in-flight tokens, so group 200's later arrival wins the pick.
	s := NewFairShare()
	running := []ReqInfo{
		{ID: 1, Group: 100, PromptLen: 800, OutputLen: 0},
		{ID: 2, Group: 200, PromptLen: 400, OutputLen: 0},
	}
	v := view([]ReqInfo{
		{ID: 3, Group: 100, Arrival: 1 * time.Millisecond},
		{ID: 4, Group: 200, Arrival: 2 * time.Millisecond},
	}, running)
	if got := s.PickWaiting(v); got != 1 {
		t.Errorf("pick = %d, want 1 (group 200 holds fewer in-flight tokens)", got)
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

// TestWithPrefillReserve: no built-in withholds budget from decode —
// every one returns DefaultSplit whether or not prefill work exists.
// A different split is a custom Scheduler's PrefillBudget.
func TestWithPrefillReserve(t *testing.T) {
	idle := view(nil, []ReqInfo{{ID: 1, Phase: PhaseDecode}})
	busy := view([]ReqInfo{{ID: 2}}, []ReqInfo{{ID: 1, Phase: PhasePrefill}})
	for _, s := range []Scheduler{NewFCFS(), NewPriority(), NewSJF(), NewFairShare()} {
		for _, v := range []*View{idle, busy} {
			if got := s.PrefillBudget(v, 100); got != DefaultSplit(100) {
				t.Errorf("%s: split = %+v, want %+v", s.Name(), got, DefaultSplit(100))
			}
		}
	}
}

// TestSchedulerNames pins the names reports and scorecards print.
func TestSchedulerNames(t *testing.T) {
	for _, c := range []struct {
		s    Scheduler
		want string
	}{
		{NewFCFS(), "fcfs"}, {NewPriority(), "priority"}, {NewSJF(), "sjf"},
		{NewFairShare(), "fairshare"},
	} {
		if c.s.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.s.Name(), c.want)
		}
	}
}
