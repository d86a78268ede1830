// Package sched is the engine's pluggable scheduling layer: the
// policy decisions — which waiting request to admit next, which
// running request to evict when memory runs out, and how a step's
// token budget splits between prefill and decode — carved out of the
// engine behind a small deterministic Scheduler interface.
//
// The engine brings a read-only View (waiting queue, running set, live
// memory usage, clock) up to date before every decision and delegates
// to the configured Scheduler; it never encodes a priority or arrival-order
// comparison itself. The FCFS built-in reproduces the engine's
// historical behavior bit-for-bit (the golden regression tests pin
// this); Priority, SJF and FairShare open scheduling scenarios a
// single baked-in policy cannot: strict-priority serving with
// admission-time preemption, shortest-remaining-first latency shaping,
// and fair sharing across tenant prefix groups.
//
// Determinism contract: a Scheduler must be a pure function of the
// View (no hidden mutable state, no randomness, no wall-clock reads).
// The engine is deterministic for a seeded workload; a stateful or
// randomized policy forfeits that guarantee and with it the golden
// tests, replayable traces and cross-run comparisons. All built-ins
// are stateless values and safe to share across engines.
package sched

import (
	"time"

	"jenga/internal/core"
)

// Phase mirrors the engine's request phase in the scheduler's view.
type Phase int

const (
	// PhasePrefill: the request still has prompt (or recompute) tokens
	// to commit.
	PhasePrefill Phase = iota
	// PhaseDecode: the request produces one output token per step.
	PhaseDecode
)

// ReqInfo is the scheduler-visible summary of one request. The engine
// fills it from the request and its runtime state; policies decide on
// it without seeing engine internals.
type ReqInfo struct {
	// ID is the request's unique ID.
	ID int64
	// Priority is the request's scheduling class (higher = more
	// urgent; the workload default is 0 everywhere).
	Priority int
	// Arrival is the request's simulated arrival instant.
	Arrival time.Duration
	// Deadline is the request's end-to-end budget (0 = none).
	Deadline time.Duration
	// Group is the request's prefix-sharing / tenant label (0 =
	// unlabeled; FairShare treats all unlabeled requests as one group).
	Group int64
	// PromptLen and OutputLen are the request's token dimensions.
	PromptLen int
	OutputLen int
	// Remaining is the work still to serve: uncommitted prompt tokens
	// (the full prompt again after a preemption) plus remaining output.
	Remaining int
	// Phase is the request's current phase (running entries only).
	Phase Phase
	// ScheduledNow marks a running entry whose commit is in flight this
	// step; it is immune to preemption and VictimFor must not pick it.
	ScheduledNow bool
	// Waiting is true for waiting-queue entries and admission
	// candidates, false for running entries.
	Waiting bool
	// Blocked marks a waiting entry the engine already tried to admit in
	// this admission pass and could not: it failed the memory gate and
	// no victim could make room for it. The mark lasts one pass: the
	// engine sets it, asks PickWaiting again, and clears every mark when
	// the pass ends. Only that pass's PickWaiting and VictimFor calls
	// see marks; PrefillBudget, RankWaiting, the blocked-admission
	// preemption before the pass and the next step never do.
	Blocked bool
}

// View is the read-only scheduler input the engine brings up to date
// before each decision: the live queues plus aggregate memory
// accounting. Slices are reused across steps — policies must not retain
// them, nor write to them.
type View struct {
	// Clock and Step are the simulation position.
	Clock time.Duration
	Step  int
	// Waiting is the admission queue in queue order (preempted
	// requests re-enter at the front). The engine maintains it as the
	// queue changes instead of refilling it per call — it is the
	// queue's own array of summaries — so it is read-only. During an
	// admission pass, entries the engine could not admit carry
	// Blocked (see PickWaiting).
	Waiting []ReqInfo
	// Running is the scheduled set in running order, likewise the
	// running set's own array of summaries, updated where a run changes
	// (scheduled, committed, moved to decode): read-only.
	Running []ReqInfo
	// Usage is the manager's aggregate memory accounting (PerGroup is
	// nil — scheduling decisions must not cost a map per call).
	Usage core.Usage
	// Capacity is the manager's total KV bytes.
	Capacity int64
}

// Split is a step's token-budget split between the decode and prefill
// paths. The engine clamps both to the step's total budget; Decode
// caps phase-1 decode tokens, Prefill caps phase-2/3 prefill chunks
// and admissions. Returning {total, total} (DefaultSplit) means the
// shared-budget, decode-first behavior the engine always had.
type Split struct {
	Decode  int
	Prefill int
}

// DefaultSplit is the historical shared budget: decode first, prefill
// takes the remainder.
func DefaultSplit(total int) Split { return Split{Decode: total, Prefill: total} }

// Scheduler is the pluggable scheduling policy. All methods must be
// deterministic pure functions of their inputs (see the package
// determinism contract). Index results refer to the View slices; the
// engine validates them and treats out-of-range or ineligible picks
// as "none".
type Scheduler interface {
	// Name identifies the policy in flags, results and reports.
	Name() string
	// PickWaiting returns the index in v.Waiting of the next admission
	// candidate. Called only with a non-empty waiting queue. Within one
	// admission pass the engine marks each candidate it could not admit
	// (ReqInfo.Blocked) and asks again; returning a marked entry ends the
	// pass. A policy whose order is strict — nothing may start ahead of
	// its pick — returns its pick whether marked or not; a policy that
	// lets a later candidate start past a blocked one returns that
	// candidate instead.
	PickWaiting(v *View) int
	// VictimFor returns the index in v.Running of the request to
	// recompute-preempt so that requester can obtain memory, or -1 to
	// preempt nothing. The requester is either a running decode
	// needing one more page (Waiting false) or a blocked admission
	// candidate (Waiting true) — a policy that returns -1 for waiting
	// requesters never preempts at admission, the historical behavior.
	// Entries with ScheduledNow or the requester itself are not
	// eligible.
	VictimFor(requester ReqInfo, v *View) int
	// PrefillBudget splits the step's token budget between decode and
	// prefill work (chunked-prefill interaction, §6 of the paper).
	PrefillBudget(v *View, total int) Split
	// RankWaiting returns how many waiting requests the policy would
	// schedule ahead of cand — the queue position an arriving request
	// would take, surfaced to admission policies as
	// AdmissionState.QueuePos.
	RankWaiting(cand ReqInfo, v *View) int
}

// AdmissionPreempter is an optional Scheduler capability: it reports
// whether VictimFor can ever return a victim for a *waiting*
// requester (admission-time preemption). The engine consults it to
// skip the blocked-admission phase entirely for policies that never
// preempt there; a scheduler that does not implement it is assumed to
// preempt (the safe default for custom policies). All built-ins
// implement it.
type AdmissionPreempter interface {
	AdmissionPreempts() bool
}

// CanAdmissionPreempt reports whether s may preempt for a blocked
// admission candidate: its AdmissionPreempter answer when implemented,
// true otherwise.
func CanAdmissionPreempt(s Scheduler) bool {
	if p, ok := s.(AdmissionPreempter); ok {
		return p.AdmissionPreempts()
	}
	return true
}

// Compare is the one shared priority/arrival comparator every policy
// and both engine decision sites (admission pick and preemption
// victim) derive their ordering from: higher Priority schedules
// first, earlier Arrival breaks ties within a level. It returns -1
// when a schedules before b, +1 when b schedules before a, and 0 on a
// full tie (equal priority and arrival — callers keep their first
// candidate, so queue order decides). Victim selection is the same
// comparator reversed: the last request in schedule order is evicted
// first.
func Compare(a, b ReqInfo) int { return compare(&a, &b) }

// compare is Compare on the entries in place: the built-ins read the
// View's arrays through pointers, never copying a summary to compare it.
func compare(a, b *ReqInfo) int {
	if a.Priority != b.Priority {
		if a.Priority > b.Priority {
			return -1
		}
		return 1
	}
	return compareArrival(a, b)
}

// compareArrival orders by arrival alone (the priority-blind FCFS
// core): earlier first, 0 on equal arrivals.
func compareArrival(a, b *ReqInfo) int {
	if a.Arrival != b.Arrival {
		if a.Arrival < b.Arrival {
			return -1
		}
		return 1
	}
	return 0
}

// pickMin returns the first index of entries minimizing cmp (the next
// request in schedule order); -1 when entries is empty.
func pickMin(entries []ReqInfo, cmp func(a, b *ReqInfo) int) int {
	if len(entries) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(entries); i++ {
		if cmp(&entries[i], &entries[best]) < 0 {
			best = i
		}
	}
	return best
}

// victimMax returns the first eligible index of running maximizing cmp
// (the last request in schedule order — the eviction choice), skipping
// the requester and entries whose commits are in flight; -1 when no
// entry is eligible. eligible may further restrict candidates (nil
// admits all).
func victimMax(requester *ReqInfo, running []ReqInfo, cmp func(a, b *ReqInfo) int, eligible func(*ReqInfo) bool) int {
	best := -1
	for i := range running {
		c := &running[i]
		if c.ScheduledNow || c.ID == requester.ID {
			continue
		}
		if eligible != nil && !eligible(c) {
			continue
		}
		if best < 0 || cmp(c, &running[best]) > 0 {
			best = i
		}
	}
	return best
}

// rankBy counts the waiting entries ordered at-or-ahead of cand under
// cmp (ties count as ahead: an equal entry already in the queue keeps
// its place).
func rankBy(cand *ReqInfo, waiting []ReqInfo, cmp func(a, b *ReqInfo) int) int {
	n := 0
	for i := range waiting {
		if cmp(&waiting[i], cand) <= 0 {
			n++
		}
	}
	return n
}
