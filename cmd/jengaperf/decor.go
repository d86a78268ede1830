package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// Timing decorators: every layer's public interface wrapped from the
// outside, so a traced pass attributes host time to a layer without
// instrumenting anything inside the program. Each decorator keeps
// fixed-size per-op counters and busy-time sums; one instance per
// replica (no locks), except the admission policy, which the cluster
// shares between replica goroutines and therefore counts atomically.

// epoch anchors the monotonic clock: now() is one clock read, where
// time.Now() is two (wall and monotonic).
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// opStat is one operation's call count and busy time.
type opStat struct {
	calls int64
	busy  time.Duration
}

func (o *opStat) done(start time.Duration) {
	o.calls++
	o.busy += now() - start
}

// Core manager operations, in report order.
const (
	opLookup = iota
	opReserve
	opCommit
	opRelease
	opUsageTotals
	opFootprint
	opImages // EncodeImages + DropImages
	opSwapOut
	opLookupFleet
	opPeerXfer // ExportPrefix + ImportPrefix
	opOther    // CachedPrefix, RestoreCost, Fork, CrashReset, Usage
	numCoreOps
)

var coreOpNames = [numCoreOps]string{
	"lookup", "reserve", "commit", "release", "usage_totals", "footprint",
	"encode_images", "swap_out", "lookup_fleet", "peer_xfer", "other",
}

// coreCounters is one replica manager's traced state.
type coreCounters struct {
	ops            [numCoreOps]opStat
	reserveNoSpace int64
	// lookupTokens / lookupHitTokens: tokens offered to Lookup and the
	// prefix lengths it returned.
	lookupTokens, lookupHitTokens int64
	// Fractions of capacity folded from the UsageTotals values the
	// engine asks for anyway (every step and every snapshot).
	usageSamples                            int64
	usedSum, cachedSum, wasteSum, wastePeak float64
	capacity                                float64
	// crashed accumulates the allocator counters of managers that
	// CrashReset wiped, so a run's totals survive a simulated crash.
	crashed core.Stats
	stats   func() core.Stats
}

// totalStats is the allocator event count over the whole pass.
func (c *coreCounters) totalStats() core.Stats {
	s := c.crashed
	addStats(&s, c.stats())
	return s
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.Allocs += s.Allocs
	dst.Frees += s.Frees
	dst.SmallEvictions += s.SmallEvictions
	dst.LargeEvictions += s.LargeEvictions
	dst.LargeReclaims += s.LargeReclaims
	dst.SwapOuts += s.SwapOuts
	dst.SwapIns += s.SwapIns
	dst.RestoredTokens += s.RestoredTokens
	dst.Forks += s.Forks
	dst.CowCopies += s.CowCopies
	dst.CowCopyBytes += s.CowCopyBytes
}

// tracedManager times a core.Manager that has no optional capability
// (the PagedAttention baselines). It deliberately implements nothing
// beyond Manager, so wrapping never grants a capability.
type tracedManager struct {
	inner core.Manager
	c     *coreCounters
}

func (m *tracedManager) Lookup(seq *core.Sequence) int {
	t := now()
	p := m.inner.Lookup(seq)
	m.c.ops[opLookup].done(t)
	m.c.lookupTokens += int64(len(seq.Tokens))
	m.c.lookupHitTokens += int64(p)
	return p
}

func (m *tracedManager) Reserve(seq *core.Sequence, upTo int, tick core.Tick) error {
	t := now()
	err := m.inner.Reserve(seq, upTo, tick)
	m.c.ops[opReserve].done(t)
	if err != nil {
		m.c.reserveNoSpace++
	}
	return err
}

func (m *tracedManager) Commit(seq *core.Sequence, upTo int, tick core.Tick) {
	t := now()
	m.inner.Commit(seq, upTo, tick)
	m.c.ops[opCommit].done(t)
}

func (m *tracedManager) Release(seq *core.Sequence, cache bool) {
	t := now()
	m.inner.Release(seq, cache)
	m.c.ops[opRelease].done(t)
}

func (m *tracedManager) Usage() core.Usage {
	t := now()
	u := m.inner.Usage()
	m.c.ops[opOther].done(t)
	return u
}

func (m *tracedManager) UsageTotals() core.Usage {
	t := now()
	u := m.inner.UsageTotals()
	c := m.c
	c.ops[opUsageTotals].done(t)
	if c.capacity > 0 {
		c.usageSamples++
		c.usedSum += float64(u.Used) / c.capacity
		c.cachedSum += float64(u.Cached) / c.capacity
		w := float64(u.Wasted) / c.capacity
		c.wasteSum += w
		if w > c.wastePeak {
			c.wastePeak = w
		}
	}
	return u
}

// Capacity and SupportsVisionCache are constant getters called every
// step; timing them would cost more than they do.
func (m *tracedManager) Capacity() int64           { return m.inner.Capacity() }
func (m *tracedManager) SupportsVisionCache() bool { return m.inner.SupportsVisionCache() }

func (m *tracedManager) CachedPrefix(seq *core.Sequence) int {
	t := now()
	p := m.inner.CachedPrefix(seq)
	m.c.ops[opOther].done(t)
	return p
}

func (m *tracedManager) EncodeImages(seq *core.Sequence, uptoFull int, tick core.Tick) error {
	t := now()
	err := m.inner.EncodeImages(seq, uptoFull, tick)
	m.c.ops[opImages].done(t)
	return err
}

func (m *tracedManager) DropImages(seq *core.Sequence, uptoFull int) {
	t := now()
	m.inner.DropImages(seq, uptoFull)
	m.c.ops[opImages].done(t)
}

func (m *tracedManager) Footprint(seq *core.Sequence) int64 {
	t := now()
	b := m.inner.Footprint(seq)
	m.c.ops[opFootprint].done(t)
	return b
}

// fullManager is the capability set of *core.Jenga: everything the
// engine, the cluster's crash recovery and the fleet store assert for.
type fullManager interface {
	core.Manager
	core.TierManager
	core.Forker
	core.Crasher
	NotePeerFetch(skipped, failed int64)
}

// tracedJenga times a manager with the full capability set and
// forwards every capability, so the wrapped manager behaves exactly
// like the bare one (the -check fingerprint comparison proves it).
type tracedJenga struct {
	tracedManager
	full fullManager
}

func (m *tracedJenga) SwapOut(seq *core.Sequence) (int, int64) {
	t := now()
	pages, bytes := m.full.SwapOut(seq)
	m.c.ops[opSwapOut].done(t)
	return pages, bytes
}

// The drains and stat snapshots are field reads; forwarded untimed.
func (m *tracedJenga) DrainTransfers() (h2d, d2h int64)    { return m.full.DrainTransfers() }
func (m *tracedJenga) TierStats() core.TierStats           { return m.full.TierStats() }
func (m *tracedJenga) DrainCopyBytes() int64               { return m.full.DrainCopyBytes() }
func (m *tracedJenga) SetTierObserver(o core.TierObserver) { m.full.SetTierObserver(o) }
func (m *tracedJenga) NotePeerFetch(skipped, failed int64) { m.full.NotePeerFetch(skipped, failed) }
func (m *tracedJenga) RestoreCost(seq *core.Sequence) (int, int64) {
	t := now()
	tok, bytes := m.full.RestoreCost(seq)
	m.c.ops[opOther].done(t)
	return tok, bytes
}

func (m *tracedJenga) ExportPrefix(group string, hashes []uint64) (core.PageSet, bool) {
	t := now()
	ps, ok := m.full.ExportPrefix(group, hashes)
	m.c.ops[opPeerXfer].done(t)
	return ps, ok
}

func (m *tracedJenga) ImportPrefix(ps core.PageSet, tick core.Tick) (int, int64) {
	t := now()
	pages, bytes := m.full.ImportPrefix(ps, tick)
	m.c.ops[opPeerXfer].done(t)
	return pages, bytes
}

func (m *tracedJenga) LookupFleet(seq *core.Sequence, peer core.PeerPresence) (int, []core.FetchBlock) {
	t := now()
	p, fetch := m.full.LookupFleet(seq, peer)
	m.c.ops[opLookupFleet].done(t)
	return p, fetch
}

func (m *tracedJenga) Fork(parent, child *core.Sequence, tick core.Tick) error {
	t := now()
	err := m.full.Fork(parent, child, tick)
	m.c.ops[opOther].done(t)
	return err
}

func (m *tracedJenga) CrashReset() error {
	// The reset zeroes the allocator counters; bank them first.
	addStats(&m.c.crashed, m.c.stats())
	t := now()
	err := m.full.CrashReset()
	m.c.ops[opOther].done(t)
	return err
}

// wrapManager returns m behind timing counters. A manager with every
// optional capability keeps all of them; one with none gains none. A
// partial set would silently change engine behaviour under the
// wrapper, so it is refused.
func wrapManager(m core.Manager, c *coreCounters) (core.Manager, error) {
	c.capacity = float64(m.Capacity())
	if s, ok := m.(interface{ Stats() core.Stats }); ok {
		c.stats = s.Stats
	} else {
		c.stats = func() core.Stats { return core.Stats{} }
	}
	base := tracedManager{inner: m, c: c}
	if full, ok := m.(fullManager); ok {
		return &tracedJenga{tracedManager: base, full: full}, nil
	}
	_, tier := m.(core.TierManager)
	_, fork := m.(core.Forker)
	_, crash := m.(core.Crasher)
	if tier || fork || crash {
		return nil, fmt.Errorf("jengaperf: manager %T has a partial capability set (tier=%v fork=%v crash=%v); no decorator preserves it", m, tier, fork, crash)
	}
	return &base, nil
}

// schedCounters is one replica scheduler's traced state.
type schedCounters struct {
	pick, victim, budget, rank opStat
	// Queue depth seen by the policy: every call carries a View.
	viewCalls, viewWaitingSum int64
	viewWaitingMax            int
	victimFound               int64
}

func (c *schedCounters) sawView(v *sched.View) {
	n := len(v.Waiting)
	c.viewCalls++
	c.viewWaitingSum += int64(n)
	if n > c.viewWaitingMax {
		c.viewWaitingMax = n
	}
}

// tracedSched times a sched.Scheduler. It always answers the
// AdmissionPreempter question with the inner policy's effective
// answer, so the engine skips (or runs) the blocked-admission phase
// exactly as it would unwrapped.
type tracedSched struct {
	inner sched.Scheduler
	c     *schedCounters
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) PickWaiting(v *sched.View) int {
	t := now()
	i := s.inner.PickWaiting(v)
	s.c.pick.done(t)
	s.c.sawView(v)
	return i
}

func (s *tracedSched) VictimFor(requester sched.ReqInfo, v *sched.View) int {
	t := now()
	i := s.inner.VictimFor(requester, v)
	s.c.victim.done(t)
	s.c.sawView(v)
	if i >= 0 {
		s.c.victimFound++
	}
	return i
}

func (s *tracedSched) PrefillBudget(v *sched.View, total int) sched.Split {
	t := now()
	sp := s.inner.PrefillBudget(v, total)
	s.c.budget.done(t)
	s.c.sawView(v)
	return sp
}

func (s *tracedSched) RankWaiting(cand sched.ReqInfo, v *sched.View) int {
	t := now()
	n := s.inner.RankWaiting(cand, v)
	s.c.rank.done(t)
	s.c.sawView(v)
	return n
}

func (s *tracedSched) AdmissionPreempts() bool { return sched.CanAdmissionPreempt(s.inner) }

// tracedRouter times a cluster.Router and measures placement affinity:
// the share of grouped requests the router sent to the replica it last
// picked for the same Group. (The cluster may override a pick for a
// dead or drained replica; from outside only the pick is visible.)
type tracedRouter struct {
	inner cluster.Router
	route opStat
	last  map[int64]int
	// repeats counts grouped requests whose group was placed before;
	// sticky those among them that went to the same replica again.
	repeats, sticky int64
}

func newTracedRouter(inner cluster.Router) *tracedRouter {
	return &tracedRouter{inner: inner, last: make(map[int64]int)}
}

func (r *tracedRouter) Name() string { return r.inner.Name() }

func (r *tracedRouter) Route(req *workload.Request, loads []cluster.Load) int {
	t := now()
	rep := r.inner.Route(req, loads)
	r.route.done(t)
	if req.Group != 0 {
		if prev, ok := r.last[req.Group]; ok {
			r.repeats++
			if prev == rep {
				r.sticky++
			}
		}
		r.last[req.Group] = rep
	}
	return rep
}

// tracedAdmission times an engine.AdmissionPolicy. The cluster hands
// one policy value to every replica engine, and replicas drain on
// their own goroutines, so these counters are atomic.
type tracedAdmission struct {
	inner               engine.AdmissionPolicy
	calls, busyNs, shed atomic.Int64
}

func (a *tracedAdmission) Name() string { return a.inner.Name() }

func (a *tracedAdmission) Decide(req *workload.Request, s engine.AdmissionState) engine.AdmissionDecision {
	t := now()
	d := a.inner.Decide(req, s)
	a.busyNs.Add(int64(now() - t))
	a.calls.Add(1)
	if d == engine.Shed {
		a.shed.Add(1)
	}
	return d
}

// tracedSource times a workload.Source (the streamed generator).
type tracedSource struct {
	inner        workload.Source
	next         opStat
	promptTokens int64
}

func (s *tracedSource) Next() (*workload.Request, bool) {
	t := now()
	r, ok := s.inner.Next()
	s.next.done(t)
	if ok {
		s.promptTokens += int64(len(r.Prompt))
	}
	return r, ok
}
