package sched

import "fmt"

// Built-in schedulers. FCFS is the engine default and reproduces the
// historical hard-coded behavior exactly; Priority, SJF and FairShare
// are drop-in alternatives.

// fcfs is first-come-first-served: pure arrival order, priorities
// ignored. Admission picks the earliest-arrived waiting request (the
// queue front), eviction recomputes the latest-arrived running
// request, admission never preempts, and the step budget is shared
// decode-first — bit-identical to the engine before the scheduling
// layer was extracted, as the golden regression tests pin.
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
	return victimMax(requester, v.Running, compareArrival, nil)
}

func (fcfs) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (fcfs) AdmissionPreempts() bool { return false }

func (fcfs) RankWaiting(cand ReqInfo, v *View) int { return rankBy(cand, v.Waiting, compareArrival) }

// priority is strict priority with arrival tiebreak — the shared
// Compare order. It subsumes the engine's old inline priority logic
// (highest-priority pick, lowest-priority latest-arrival victim) and
// extends it with admission-time preemption: a blocked admission
// candidate may recompute-preempt a running request of strictly lower
// priority, so a high-priority burst starts immediately instead of
// queueing behind low-priority decodes. Recompute preserves the
// victim's work in the prefix cache, and the victim re-enters the
// waiting queue rather than being dropped — lower classes are delayed,
// never starved.
type priority struct{}

// NewPriority returns the strict-priority scheduler.
func NewPriority() Scheduler { return priority{} }

func (priority) Name() string { return "priority" }

func (priority) PickWaiting(v *View) int { return pickMin(v.Waiting, Compare) }

func (priority) VictimFor(requester ReqInfo, v *View) int {
	if requester.Waiting {
		// Admission-time preemption: strictly lower classes only.
		return victimMax(requester, v.Running, Compare, func(c ReqInfo) bool {
			return c.Priority < requester.Priority
		})
	}
	// Decode-path preemption keeps the historical rule: the last
	// request in schedule order loses its memory, whatever its class.
	return victimMax(requester, v.Running, Compare, nil)
}

func (priority) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (priority) AdmissionPreempts() bool { return true }

func (priority) RankWaiting(cand ReqInfo, v *View) int { return rankBy(cand, v.Waiting, Compare) }

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
func compareSJF(a, b ReqInfo) int {
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
	return Compare(a, b)
}

func (sjf) PickWaiting(v *View) int { return pickMin(v.Waiting, compareSJF) }

func (sjf) VictimFor(requester ReqInfo, v *View) int {
	if requester.Waiting {
		return -1
	}
	return victimMax(requester, v.Running, compareSJF, nil)
}

func (sjf) PrefillBudget(_ *View, total int) Split { return DefaultSplit(total) }

func (sjf) AdmissionPreempts() bool { return false }

func (sjf) RankWaiting(cand ReqInfo, v *View) int { return rankBy(cand, v.Waiting, compareSJF) }

// fairShare serves tenants (workload.Request.Group labels) by
// weighted max-min share of live KV-backed work: the next admission
// goes to the waiting request whose group currently has the least
// weighted in-flight token footprint (running prompt plus output
// tokens, divided by the group's weight), so one tenant's burst
// cannot occupy every slot while another tenant waits — a flood
// raises its own group's share and loses every subsequent pick to the
// underserved group. Within a group, the shared priority/arrival
// order applies. Eviction reverses the rule: memory pressure
// recomputes the latest request of the most-served group first.
type fairShare struct {
	weights map[int64]float64
}

// NewFairShare returns the weighted fair-share scheduler. weights maps
// a Group label to its relative share (a group with weight 2 may hold
// twice the in-flight work of a weight-1 group before losing picks);
// absent or non-positive entries default to 1. A nil map gives every
// group equal weight. Group 0 (unlabeled requests) is one shared
// group.
func NewFairShare(weights map[int64]float64) Scheduler {
	w := make(map[int64]float64, len(weights))
	for g, x := range weights {
		if x > 0 {
			w[g] = x
		}
	}
	return fairShare{weights: w}
}

func (f fairShare) Name() string { return "fairshare" }

func (f fairShare) weight(group int64) float64 {
	if w, ok := f.weights[group]; ok {
		return w
	}
	return 1
}

// shares folds the running set into each group's weighted in-flight
// token footprint in one pass, so pick and victim decisions cost
// O(running + waiting) instead of rescanning Running per comparison.
func (f fairShare) shares(v *View) map[int64]float64 {
	m := make(map[int64]float64, 8)
	for i := range v.Running {
		m[v.Running[i].Group] += float64(v.Running[i].PromptLen + v.Running[i].OutputLen)
	}
	//jenga:order-ok each group's cell is divided exactly once; weight() is a pure read of f.weights
	for g := range m {
		m[g] /= f.weight(g)
	}
	return m
}

func (f fairShare) PickWaiting(v *View) int {
	sh := f.shares(v)
	best := 0
	bestShare := sh[v.Waiting[0].Group]
	for i := 1; i < len(v.Waiting); i++ {
		s := sh[v.Waiting[i].Group]
		if s < bestShare || (s == bestShare && Compare(v.Waiting[i], v.Waiting[best]) < 0) {
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
	return victimMax(requester, v.Running, func(a, b ReqInfo) int {
		sa, sb := sh[a.Group], sh[b.Group]
		if sa != sb {
			if sa < sb {
				return -1 // a's group is under-served: a evicts later
			}
			return 1
		}
		return Compare(a, b)
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
		if s < candShare || (s == candShare && Compare(v.Waiting[i], cand) <= 0) {
			n++
		}
	}
	return n
}

// withReserve wraps a scheduler with a prefill budget reserve: when
// prefill work exists, a fraction of the step budget is withheld from
// decode so waiting prompts always make progress — the
// chunked-prefill TTFT-versus-TPOT knob. With no prefill work, decode
// keeps the whole budget.
type withReserve struct {
	Scheduler
	frac float64
}

// WithPrefillReserve wraps s so PrefillBudget withholds frac of the
// step token budget from decode whenever prefill work (a waiting
// request or a running prefill) exists. frac is clamped to [0, 1);
// 0 returns s unchanged.
func WithPrefillReserve(s Scheduler, frac float64) Scheduler {
	if frac <= 0 {
		return s
	}
	if frac >= 1 {
		frac = 0.99
	}
	return withReserve{Scheduler: s, frac: frac}
}

func (w withReserve) Name() string { return fmt.Sprintf("%s:%g", w.Scheduler.Name(), w.frac) }

// AdmissionPreempts forwards the wrapped scheduler's capability (an
// embedded interface does not promote optional methods).
func (w withReserve) AdmissionPreempts() bool { return CanAdmissionPreempt(w.Scheduler) }

func (w withReserve) PrefillBudget(v *View, total int) Split {
	if !hasPrefillWork(v) {
		return DefaultSplit(total)
	}
	decode := total - int(w.frac*float64(total))
	if decode < 0 {
		decode = 0
	}
	return Split{Decode: decode, Prefill: total}
}
