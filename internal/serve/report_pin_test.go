package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// reportPin is serve.Report as it stood before Report became the
// engine's totals plus the shared roll-up: the same fields, flat, so a
// pin written against it keeps compiling (and keeps meaning the same)
// however Report composes them.
type reportPin struct {
	Submitted, Finished, Failed, Shed, Cancelled, Live int
	Duration                                           time.Duration
	ReqPerSec, Goodput, SLOAttainment, ShedRate        float64
	P50TTFT, P99TTFT, P50E2E, P99E2E                   time.Duration
	HitRate, MeanKVUtil, PeakKVUtil                    float64
	Preemptions                                        int
	GeneratedTokens                                    int64
	TierHitRate                                        float64
	RestoredTokens, RecomputedTokens                   int64
	SwapOuts, SwapIns                                  int64
	PeerHits                                           int
	PeerTokens, PeerBytes                              int64
	Migrations                                         int
	P99Restore                                         time.Duration
	P99QueueWait                                       time.Duration
	PerPriority                                        []PriorityReport
}

func pinOf(r Report) reportPin {
	return reportPin{
		Submitted: r.Submitted, Finished: r.Finished, Failed: r.Failed, Shed: r.Shed,
		Cancelled: r.Cancelled, Live: r.Live, Duration: r.Duration,
		ReqPerSec: r.ReqPerSec, Goodput: r.Goodput, SLOAttainment: r.SLOAttainment, ShedRate: r.ShedRate,
		P50TTFT: r.P50TTFT, P99TTFT: r.P99TTFT, P50E2E: r.P50E2E, P99E2E: r.P99E2E,
		HitRate: r.HitRate, MeanKVUtil: r.MeanKVUtil, PeakKVUtil: r.PeakKVUtil,
		Preemptions: r.Preemptions, GeneratedTokens: r.GeneratedTokens,
		TierHitRate: r.TierHitRate, RestoredTokens: r.RestoredTokens, RecomputedTokens: r.RecomputedTokens,
		SwapOuts: r.SwapOuts, SwapIns: r.SwapIns,
		PeerHits: r.PeerHits, PeerTokens: r.PeerTokens, PeerBytes: r.PeerBytes,
		Migrations: r.Migrations, P99Restore: r.P99Restore, P99QueueWait: r.P99QueueWait,
		PerPriority: r.PerPriority,
	}
}

// pinnedRun serves one seeded workload paused-submit-resume and returns
// the drained server's report. The plain run is shared-prefix traffic
// on a roomy cache. The mixed run is everything Report has a rule for,
// at once: three priority classes under the Priority scheduler on a
// starved replica with a host tier and swap preemption, per-request
// deadlines, kv admission shedding behind a short queue, one stream cut
// off by CancelAfter and one forked three ways mid-decode.
func pinnedRun(t *testing.T, mixed bool, slo time.Duration) Report {
	t.Helper()
	mcfg := core.Config{Spec: testSpec(), CapacityBytes: 16 << 20, TokensPerPage: 8, EnablePrefixCache: true, RequestAware: true}
	cfg := Config{Engine: engine.Config{Spec: testSpec(), Device: testDevice(), MaxBatchTokens: 512}, SLOTTFT: slo}
	if mixed {
		mcfg.CapacityBytes, mcfg.HostTierBytes = 1<<20, 8<<20
		cfg.Engine.Scheduler = sched.NewPriority()
		cfg.Engine.Admission = engine.KVAdmission{MaxQueue: 8}
		cfg.Engine.PreemptMode = engine.PreemptSwap
		cfg.Engine.Device.PCIeBW = 25e9
	}
	mgr, err := core.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine.Manager = mgr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGen(42)
	reqs := g.PrefixGroups(5, 10, 320, 64)
	g.PoissonArrivals(reqs, 200)
	s.Pause()
	streams := make([]*Stream, len(reqs))
	for i := range reqs {
		if i%4 == 0 {
			reqs[i].Deadline = 60 * time.Millisecond
		}
		if mixed {
			reqs[i].Priority = i % 3
		}
		if streams[i], err = s.Submit(context.Background(), reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if mixed {
		// Step the engine to the fork point under the lock the parked
		// pump would hold (see TestStreamFork).
		root := streams[1]
		s.mu.Lock()
		for root.generated < 4 && err == nil {
			err = s.eng.StepOnce()
		}
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := root.Fork(3); err != nil {
			t.Fatal(err)
		}
		streams[0].CancelAfter(5)
	}
	s.Resume()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s.Report()
}

// TestReportPinned: Report over four seeded runs equals, field for
// field, what the per-stream aggregation loop it used to be produced
// (captured at the commit before the roll-up replaced it). The two mixed
// rows were regenerated when admission began charging a request only
// for the KV it adds: five groups of ten share a 320-token prefix on a
// 1 MiB replica behind kv admission, so with prefix pages that a
// running request holds counted once the policy sheds 22 of 53 instead
// of 32 and 30 finish instead of 20 — in a longer run (0.486 → 0.686
// s) with a longer queue (p50 TTFT 18 → 114 ms). They moved again when
// priority admission stopped ending its pass at a blocked candidate: a
// request of the blocked one's class that fits now starts past it, so
// the queue drains sooner (p50 TTFT 114 → 2.5 ms, p99 443 → 362 ms, run
// 0.686 → 0.505 s, goodput 35.0 → 43.6/s), and kv admission, deciding
// against a fuller running set, sheds 26 instead of 22. The plain rows,
// where the gate never binds, only gained P99QueueWait.
func TestReportPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mixed bool
		slo   time.Duration
		want  reportPin
	}{
		{name: "plain/slo", slo: 3 * time.Millisecond, want: reportPin{
			Submitted: 50, Finished: 50,
			Duration: 323978587, ReqPerSec: 154.33118732627847, Goodput: 135.81144484712505, SLOAttainment: 0.94,
			P50TTFT: 2286077, P99TTFT: 3923017, P50E2E: 55534874, P99E2E: 84951209,
			HitRate: 0.75, MeanKVUtil: 0.313812255859375, PeakKVUtil: 0.39801025390625, GeneratedTokens: 1878, P99QueueWait: 1530114, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 50, Finished: 50, Shed: 0, P50TTFT: 2286077, P99TTFT: 3923017, Goodput: 135.81144484712505, SLOAttainment: 0.94, Preemptions: 0},
			}}},
		{name: "mixed/slo", mixed: true, slo: 3 * time.Millisecond, want: reportPin{
			Submitted: 53, Finished: 26, Shed: 26, Cancelled: 1,
			Duration: 504879116, ReqPerSec: 51.497475684852844, Goodput: 43.57478711795241, SLOAttainment: 0.6153846153846154, ShedRate: 0.49056603773584906,
			P50TTFT: 2505234, P99TTFT: 362039956, P50E2E: 80869655, P99E2E: 442012590,
			HitRate: 0.7724413950829045, MeanKVUtil: 0.989013671875, PeakKVUtil: 1, Preemptions: 12, GeneratedTokens: 1072,
			TierHitRate: 0.1732418524871355, RestoredTokens: 2424, RecomputedTokens: 48, SwapOuts: 468, SwapIns: 288, P99Restore: 32440, P99QueueWait: 359492276, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 17, Finished: 7, Shed: 9, P50TTFT: 270770030, P99TTFT: 362039956, Goodput: 11.884032850350657, SLOAttainment: 0, Preemptions: 3},
				{Priority: 1, Submitted: 20, Finished: 12, Shed: 8, P50TTFT: 1996327, P99TTFT: 126239316, Goodput: 19.806721417251094, SLOAttainment: 0.75, Preemptions: 9},
				{Priority: 2, Submitted: 16, Finished: 7, Shed: 9, P50TTFT: 2331957, P99TTFT: 2809989, Goodput: 11.884032850350657, SLOAttainment: 1, Preemptions: 0},
			}}},
		{name: "plain/deadlines", want: reportPin{
			Submitted: 50, Finished: 50,
			Duration: 323978587, ReqPerSec: 154.33118732627847, Goodput: 135.81144484712505, SLOAttainment: 0.88,
			P50TTFT: 2286077, P99TTFT: 3923017, P50E2E: 55534874, P99E2E: 84951209,
			HitRate: 0.75, MeanKVUtil: 0.313812255859375, PeakKVUtil: 0.39801025390625, GeneratedTokens: 1878, P99QueueWait: 1530114, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 50, Finished: 50, Shed: 0, P50TTFT: 2286077, P99TTFT: 3923017, Goodput: 135.81144484712505, SLOAttainment: 0.88, Preemptions: 0},
			}}},
		{name: "mixed/deadlines", mixed: true, want: reportPin{
			Submitted: 53, Finished: 26, Shed: 26, Cancelled: 1,
			Duration: 504879116, ReqPerSec: 51.497475684852844, Goodput: 43.57478711795241, SLOAttainment: 0.8461538461538461, ShedRate: 0.49056603773584906,
			P50TTFT: 2505234, P99TTFT: 362039956, P50E2E: 80869655, P99E2E: 442012590,
			HitRate: 0.7724413950829045, MeanKVUtil: 0.989013671875, PeakKVUtil: 1, Preemptions: 12, GeneratedTokens: 1072,
			TierHitRate: 0.1732418524871355, RestoredTokens: 2424, RecomputedTokens: 48, SwapOuts: 468, SwapIns: 288, P99Restore: 32440, P99QueueWait: 359492276, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 17, Finished: 7, Shed: 9, P50TTFT: 270770030, P99TTFT: 362039956, Goodput: 11.884032850350657, SLOAttainment: 0.8571428571428571, Preemptions: 3},
				{Priority: 1, Submitted: 20, Finished: 12, Shed: 8, P50TTFT: 1996327, P99TTFT: 126239316, Goodput: 19.806721417251094, SLOAttainment: 0.8333333333333334, Preemptions: 9},
				{Priority: 2, Submitted: 16, Finished: 7, Shed: 9, P50TTFT: 2331957, P99TTFT: 2809989, Goodput: 11.884032850350657, SLOAttainment: 0.8571428571428571, Preemptions: 0},
			}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := pinOf(pinnedRun(t, tc.mixed, tc.slo))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("report moved:\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}
