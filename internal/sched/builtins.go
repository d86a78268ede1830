package sched

// Built-in schedulers. FCFS is the engine default and reproduces the
// historical hard-coded behavior exactly; Priority, SJF and FairShare
// are drop-in alternatives.

// fcfs is first-come-first-served: pure arrival order, priorities
// ignored. Admission picks the earliest-arrived waiting request (the
// queue front), eviction recomputes the latest-arrived running
// request, admission never preempts, and the step budget is shared
// decode-first — bit-identical to the engine before the scheduling
// layer was extracted, as the golden regression tests pin. Arrival
// order is the contract, so a blocked queue front blocks the pass (the
// pick ignores Blocked marks); sjf and fairshare keep their picks strict
// the same way.
type fcfs struct{}

// NewFCFS returns the first-come-first-served scheduler (the engine
// default).
func NewFCFS() Scheduler { return fcfs{} }

func (fcfs) Name() string { return "fcfs" }

func (fcfs) PickWaiting(v *View) int { return pickMin(v.Waiting, compareArrival) }

func (fcfs) VictimFor(requester ReqInfo, v *View) int {
	if requester.Waiting {
		return -1 // admission never preempts under FCFS
	}
	return victimMax(&requester, v.Running, compareArrival, nil)
}

func (fcfs) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (fcfs) AdmissionPreempts() bool { return false }

func (fcfs) RankWaiting(cand ReqInfo, v *View) int { return rankBy(&cand, v.Waiting, compareArrival) }

// priority is strict priority with arrival tiebreak — the shared
// Compare order: classes strict; within a class, first fit in arrival
// order. It subsumes the engine's old inline priority logic
// (highest-priority pick, lowest-priority latest-arrival victim) and
// extends it with admission-time preemption: a blocked admission
// candidate may recompute-preempt a running request of strictly lower
// priority, so a high-priority burst starts immediately instead of
// queueing behind low-priority decodes. Recompute preserves the
// victim's work in the prefix cache, and the victim re-enters the
// waiting queue rather than being dropped — lower classes are delayed,
// never starved.
//
// Arrival is only a tie-break, so a blocked candidate does not hold
// back the rest of its class: once the engine marks it, the next pick
// is the earliest unmarked candidate of the highest marked class or
// above — typically a request sharing a prefix a running request
// holds, which is charged only the tail it adds. A class below the
// highest marked one never starts past it.
type priority struct{}

// NewPriority returns the strict-priority scheduler.
func NewPriority() Scheduler { return priority{} }

func (priority) Name() string { return "priority" }

func (priority) PickWaiting(v *View) int {
	best, floor, marked := 0, 0, false
	for i := range v.Waiting {
		c := &v.Waiting[i]
		if compare(c, &v.Waiting[best]) < 0 {
			best = i
		}
		if c.Blocked && (!marked || c.Priority > floor) {
			floor, marked = c.Priority, true
		}
	}
	if !marked {
		return best
	}
	fit := -1
	for i := range v.Waiting {
		c := &v.Waiting[i]
		if c.Blocked || c.Priority < floor {
			continue
		}
		if fit < 0 || compare(c, &v.Waiting[fit]) < 0 {
			fit = i
		}
	}
	if fit < 0 {
		return best // every eligible candidate is blocked: the pass ends
	}
	return fit
}

func (priority) VictimFor(requester ReqInfo, v *View) int {
	if requester.Waiting {
		// Admission-time preemption: strictly lower classes only.
		return victimMax(&requester, v.Running, compare, func(c *ReqInfo) bool {
			return c.Priority < requester.Priority
		})
	}
	// Decode-path preemption keeps the historical rule: the last
	// request in schedule order loses its memory, whatever its class.
	return victimMax(&requester, v.Running, compare, nil)
}

func (priority) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (priority) AdmissionPreempts() bool { return true }

func (priority) RankWaiting(cand ReqInfo, v *View) int { return rankBy(&cand, v.Waiting, compare) }

// sjf is shortest-remaining-work-first with a deadline-aware
// tiebreak: the waiting request with the fewest tokens left to serve
// (prompt plus output) is admitted first, so short interactive
// requests are not head-of-line blocked by long ones; equal work is
// broken by earlier deadline (requests without deadlines sort last),
// then by the shared priority/arrival order. Eviction is the reverse:
// the longest-remaining running request is recomputed first, the
// cheapest work to redo per byte freed.
type sjf struct{}

// NewSJF returns the shortest-remaining-first scheduler.
func NewSJF() Scheduler { return sjf{} }

func (sjf) Name() string { return "sjf" }

// compareSJF orders by remaining work, then deadline urgency —
// Deadline is a budget relative to Arrival, so urgency compares the
// absolute instants Arrival+Deadline (a request with a tight budget
// that arrived late can be less urgent than one with a loose budget
// that arrived long ago) — then the shared comparator.
func compareSJF(a, b *ReqInfo) int {
	if a.Remaining != b.Remaining {
		if a.Remaining < b.Remaining {
			return -1
		}
		return 1
	}
	switch {
	case a.Deadline == 0 && b.Deadline != 0:
		return 1 // no deadline sorts after any deadline
	case a.Deadline != 0 && b.Deadline == 0:
		return -1
	case a.Deadline != 0 && b.Deadline != 0:
		if da, db := a.Arrival+a.Deadline, b.Arrival+b.Deadline; da != db {
			if da < db {
				return -1
			}
			return 1
		}
	}
	return compare(a, b)
}

func (sjf) PickWaiting(v *View) int { return pickMin(v.Waiting, compareSJF) }

func (sjf) VictimFor(requester ReqInfo, v *View) int {
	if requester.Waiting {
		return -1
	}
	return victimMax(&requester, v.Running, compareSJF, nil)
}

func (sjf) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (sjf) AdmissionPreempts() bool { return false }

func (sjf) RankWaiting(cand ReqInfo, v *View) int { return rankBy(&cand, v.Waiting, compareSJF) }

// fairShare serves tenants (workload.Request.Group labels) by max-min
// share of live KV-backed work: the next admission goes to the waiting
// request whose group currently has the least in-flight token
// footprint (running prompt plus output tokens), so one tenant's burst
// cannot occupy every slot while another tenant waits — a flood
// raises its own group's share and loses every subsequent pick to the
// underserved group. Within a group, the shared priority/arrival
// order applies. Eviction reverses the rule: memory pressure
// recomputes the latest request of the most-served group first.
type fairShare struct{}

// NewFairShare returns the fair-share scheduler. Every group weighs
// the same; group 0 (unlabeled requests) is one shared group.
func NewFairShare() Scheduler { return fairShare{} }

func (fairShare) Name() string { return "fairshare" }

// shares folds the running set into each group's in-flight token
// footprint in one pass, so pick and victim decisions cost
// O(running + waiting) instead of rescanning Running per comparison.
func (fairShare) shares(v *View) map[int64]int {
	m := make(map[int64]int, 8)
	for i := range v.Running {
		m[v.Running[i].Group] += v.Running[i].PromptLen + v.Running[i].OutputLen
	}
	return m
}

func (f fairShare) PickWaiting(v *View) int {
	sh := f.shares(v)
	best := 0
	bestShare := sh[v.Waiting[0].Group]
	for i := 1; i < len(v.Waiting); i++ {
		s := sh[v.Waiting[i].Group]
		if s < bestShare || (s == bestShare && compare(&v.Waiting[i], &v.Waiting[best]) < 0) {
			best, bestShare = i, s
		}
	}
	return best
}

func (f fairShare) VictimFor(requester ReqInfo, v *View) int {
	if requester.Waiting {
		return -1
	}
	// Evict from the most-served group; the shared reverse order picks
	// within it.
	sh := f.shares(v)
	return victimMax(&requester, v.Running, func(a, b *ReqInfo) int {
		sa, sb := sh[a.Group], sh[b.Group]
		if sa != sb {
			if sa < sb {
				return -1 // a's group is under-served: a evicts later
			}
			return 1
		}
		return compare(a, b)
	}, nil)
}

func (f fairShare) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (f fairShare) AdmissionPreempts() bool { return false }

func (f fairShare) RankWaiting(cand ReqInfo, v *View) int {
	sh := f.shares(v)
	candShare := sh[cand.Group]
	n := 0
	for i := range v.Waiting {
		s := sh[v.Waiting[i].Group]
		if s < candShare || (s == candShare && compare(&v.Waiting[i], &cand) <= 0) {
			n++
		}
	}
	return n
}
