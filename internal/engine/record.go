package engine

import (
	"time"

	"jenga/internal/metrics"
)

// This file is the reporting vocabulary every level shares: the one
// record a request leaves behind (RequestMetrics), the one roll-up of
// such records (Rollup → Latency), and the run totals with their one
// sums→rates derivation (Totals). engine.Result, serve.Report and
// cluster.Result embed Totals, and the latter two embed Latency, so a
// new record field or a new derived rate lands here once.

// RequestMetrics is one request's terminal record, completed by the
// engine's single exit (retire) whatever way the request left.
type RequestMetrics struct {
	ID int64
	// State is the terminal event the request left with: EventFinished,
	// EventFailed, EventShed or EventCancelled.
	State   EventType
	Arrival time.Duration
	// TTFT is arrival to first output token, zero when the request left
	// without one. E2E is arrival to the terminal instant, for every
	// state (zero for a request cancelled ahead of its arrival).
	TTFT time.Duration
	E2E  time.Duration
	// Deadline is the request's E2E budget (0 = none); goodput counts
	// only finished requests with E2E within it.
	Deadline time.Duration
	// Group and Priority echo the request's tenant label and
	// scheduling class; cluster aggregation computes per-group
	// fairness and serve.Report its per-priority rows from them.
	Group    int64
	Priority int
	// Tokens is the request's work at full service: prompt plus output
	// length. Generated is the output tokens that exist at the terminal
	// instant (what the terminal Event reports), Preemptions how often
	// the request lost its KV on the way, across every engine it ran on.
	Tokens      int
	Generated   int
	Preemptions int
	// RestoredTokens and RestoreBytes are the request's host-tier
	// share: prefix tokens the tier served (beyond the GPU-only
	// prefix) instead of recompute, and the H2D bytes that cost;
	// RestoreTime is the PCIe time of those bytes.
	RestoredTokens int
	RestoreBytes   int64
	RestoreTime    time.Duration
}

// DeadlineMet reports whether the request finished within its deadline
// (a finished request without one always did).
func (m *RequestMetrics) DeadlineMet() bool {
	return m.State == EventFinished && (m.Deadline == 0 || m.E2E <= m.Deadline)
}

// RetireSink receives each request's record at its terminal instant,
// immediately before the terminal Event is emitted. It is invoked
// synchronously on the engine's stepping goroutine and must not call
// back into the engine.
type RetireSink func(m RequestMetrics)

// Totals is what a run served, in the form every report level carries:
// an engine's Result, a server's Report and a fleet's Result embed it.
// Counts and token sums accumulate (Add folds replicas into a fleet);
// the rates are derived from them in one place (Rates).
type Totals struct {
	// Duration is the simulated time served: one engine's clock, or a
	// fleet's slowest replica.
	Duration time.Duration
	// Finished, Failed, Shed and Cancelled partition the terminated
	// requests: full output produced; can never run (context exceeds
	// capacity); dropped by the admission policy at arrival or by a
	// drain; terminated by Cancel.
	Finished, Failed, Shed, Cancelled int
	// ReqPerSec is finished requests per simulated second;
	// TokensPerSec counts computed prompt plus generated tokens.
	ReqPerSec, TokensPerSec float64
	// HitRate is cached prompt tokens over all prefill work, cached
	// plus computed — recompute passes after preemption included, so it
	// stays in [0, 1] (Fig. 17) — and exact over a fleet rather than a
	// mean of per-replica ratios. CachedPromptTokens and
	// ComputedPromptTokens are its numerator and the computed remainder.
	HitRate              float64
	CachedPromptTokens   int64
	ComputedPromptTokens int64
	// GeneratedTokens counts decode-produced tokens.
	GeneratedTokens int64
	// Preemptions counts preemptions (recompute- or swap-mode).
	Preemptions int
	// RecomputedTokens counts prompt-pass tokens that had already been
	// computed once for the same request — the work preemption wastes
	// and the host tier exists to avoid.
	RecomputedTokens int64
	// RestoredTokens counts prefix tokens served from the host tier
	// (H2D restore) instead of being recomputed, over claims whose
	// admission succeeded; TierHitRate is their share of all prefill
	// work, the tier counterpart of (and bounded by) HitRate.
	// SwapOuts and SwapIns count large pages spilled to and blocks
	// restored from the tier. All zero without a tiered manager.
	RestoredTokens    int64
	TierHitRate       float64
	SwapOuts, SwapIns int64
	// PeerHits counts fleet-store fetches that extended a replica's
	// local prefix from a peer's host tier; PeerTokens is the prefix
	// length they added over the local lookup, PeerHitRate their share
	// of all prefill work (the fleet-store counterpart of TierHitRate),
	// and PeerBytes the peer-link wire volume charged (fetches plus
	// migration moves). All zero outside a fleet deployment.
	PeerHits    int
	PeerTokens  int64
	PeerHitRate float64
	PeerBytes   int64
}

// Add folds another replica's totals into t: counts and sums add, the
// fleet's duration is its slowest replica's. Rates are left to Rates.
func (t *Totals) Add(o *Totals) {
	t.Duration = max(t.Duration, o.Duration)
	t.Finished += o.Finished
	t.Failed += o.Failed
	t.Shed += o.Shed
	t.Cancelled += o.Cancelled
	t.CachedPromptTokens += o.CachedPromptTokens
	t.ComputedPromptTokens += o.ComputedPromptTokens
	t.GeneratedTokens += o.GeneratedTokens
	t.Preemptions += o.Preemptions
	t.RecomputedTokens += o.RecomputedTokens
	t.RestoredTokens += o.RestoredTokens
	t.SwapOuts += o.SwapOuts
	t.SwapIns += o.SwapIns
	t.PeerHits += o.PeerHits
	t.PeerTokens += o.PeerTokens
	t.PeerBytes += o.PeerBytes
}

// Rates derives the throughput and hit rates from the counts and sums.
func (t *Totals) Rates() {
	if t.Duration > 0 {
		t.ReqPerSec = float64(t.Finished) / t.Duration.Seconds()
		t.TokensPerSec = float64(t.ComputedPromptTokens+t.GeneratedTokens) / t.Duration.Seconds()
	}
	if work := t.CachedPromptTokens + t.ComputedPromptTokens; work > 0 {
		t.HitRate = float64(t.CachedPromptTokens) / float64(work)
		t.TierHitRate = float64(t.RestoredTokens) / float64(work)
		t.PeerHitRate = float64(t.PeerTokens) / float64(work)
	}
}

// Latency is what a Rollup derives from the records it folded.
type Latency struct {
	// Goodput is deadline-meeting finishes per simulated second (equal
	// to ReqPerSec when no request carries a deadline).
	Goodput float64
	// SLOAttainment is the fraction of finished requests with TTFT at
	// or under the roll-up's target; with no target, the fraction
	// meeting their own deadlines (1 when neither is set). A target
	// with nothing finished is vacuously met.
	SLOAttainment float64
	// P50TTFT/P99TTFT/P50E2E/P99E2E are latency percentiles over
	// finished requests; P99Restore is the p99 per-request PCIe restore
	// time over them — what a spilled-prefix hit costs at the tail.
	P50TTFT, P99TTFT, P50E2E, P99E2E time.Duration
	P99Restore                       time.Duration
}

// sample is one latency distribution: every value kept (exact
// nearest-rank percentiles) or, when hist is set, a log-bucketed
// histogram (fixed memory, ≤ ~4.5% relative error).
type sample struct {
	values []time.Duration
	hist   *metrics.DurationHist
}

func (s *sample) observe(d time.Duration) {
	if s.hist != nil {
		s.hist.Observe(d)
		return
	}
	s.values = append(s.values, d)
}

func (s *sample) merge(o *sample) {
	s.values = append(s.values, o.values...)
	if s.hist != nil {
		s.hist.Merge(o.hist)
	}
}

func (s *sample) percentiles(ps ...float64) []time.Duration {
	if s.hist == nil {
		return metrics.Percentiles(s.values, ps...)
	}
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = s.hist.Percentile(p)
	}
	return out
}

// Rollup folds terminal records into the numbers reports derive from
// them: counts by terminal state, how many finishes met their deadline
// and the TTFT target, and the TTFT, E2E and restore-time distributions
// over finished requests. One Rollup is touched by one goroutine at a
// time; shard-local ones Merge after the join.
type Rollup struct {
	slo time.Duration
	// Finished, Failed, Shed and Cancelled count the folded records by
	// State; Preemptions sums theirs.
	Finished, Failed, Shed, Cancelled int
	Preemptions                       int
	deadlineMet, sloMet               int
	ttft, e2e, restore                sample
}

// NewRollup starts a roll-up measuring SLO attainment against the TTFT
// target slo (0: against per-request deadlines). exact keeps every
// latency for exact nearest-rank percentiles; otherwise they fold into
// fixed-size histograms, so memory stays bounded at any request count.
func NewRollup(slo time.Duration, exact bool) *Rollup {
	r := &Rollup{slo: slo}
	if !exact {
		r.ttft.hist, r.e2e.hist, r.restore.hist = new(metrics.DurationHist), new(metrics.DurationHist), new(metrics.DurationHist)
	}
	return r
}

// Observe folds one terminal record.
func (r *Rollup) Observe(m *RequestMetrics) {
	r.Preemptions += m.Preemptions
	switch m.State {
	case EventFailed:
		r.Failed++
	case EventShed:
		r.Shed++
	case EventCancelled:
		r.Cancelled++
	case EventFinished:
		r.Finished++
		r.ttft.observe(m.TTFT)
		r.e2e.observe(m.E2E)
		r.restore.observe(m.RestoreTime)
		if m.DeadlineMet() {
			r.deadlineMet++
		}
		if m.TTFT <= r.slo {
			r.sloMet++
		}
	}
}

// Merge folds o (same target, same exactness) into r.
func (r *Rollup) Merge(o *Rollup) {
	r.Finished += o.Finished
	r.Failed += o.Failed
	r.Shed += o.Shed
	r.Cancelled += o.Cancelled
	r.Preemptions += o.Preemptions
	r.deadlineMet += o.deadlineMet
	r.sloMet += o.sloMet
	r.ttft.merge(&o.ttft)
	r.e2e.merge(&o.e2e)
	r.restore.merge(&o.restore)
}

// Latency derives the report numbers over a serving duration d.
func (r *Rollup) Latency(d time.Duration) Latency {
	l := Latency{Goodput: metrics.Goodput(r.deadlineMet, d)}
	switch {
	case r.slo <= 0:
		l.SLOAttainment = metrics.Fraction(r.deadlineMet, r.Finished)
	case r.Finished == 0:
		l.SLOAttainment = 1
	default:
		l.SLOAttainment = float64(r.sloMet) / float64(r.Finished)
	}
	tq := r.ttft.percentiles(50, 99)
	eq := r.e2e.percentiles(50, 99)
	l.P50TTFT, l.P99TTFT = tq[0], tq[1]
	l.P50E2E, l.P99E2E = eq[0], eq[1]
	l.P99Restore = r.restore.percentiles(99)[0]
	return l
}
