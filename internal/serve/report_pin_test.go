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
		Migrations: r.Migrations, P99Restore: r.P99Restore,
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
// s) with a longer queue (p50 TTFT 18 → 114 ms). The plain rows, where
// the gate never binds, are untouched.
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
			HitRate: 0.75, MeanKVUtil: 0.313812255859375, PeakKVUtil: 0.39801025390625, GeneratedTokens: 1878, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 50, Finished: 50, Shed: 0, P50TTFT: 2286077, P99TTFT: 3923017, Goodput: 135.81144484712505, SLOAttainment: 0.94, Preemptions: 0},
			}}},
		{name: "mixed/slo", mixed: true, slo: 3 * time.Millisecond, want: reportPin{
			Submitted: 53, Finished: 30, Shed: 22, Cancelled: 1,
			Duration: 685816828, ReqPerSec: 43.74345856675305, Goodput: 34.99476685340244, SLOAttainment: 0.26666666666666666, ShedRate: 0.41509433962264153,
			P50TTFT: 114328364, P99TTFT: 443459270, P50E2E: 180145245, P99E2E: 483974312,
			HitRate: 0.739352380952381, MeanKVUtil: 0.98992919921875, PeakKVUtil: 0.9990234375, Preemptions: 6, GeneratedTokens: 1176,
			TierHitRate: 0.4723809523809524, RestoredTokens: 6200, RecomputedTokens: 29, SwapOuts: 521, SwapIns: 647, P99Restore: 13107, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 17, Finished: 11, Shed: 5, P50TTFT: 405228843, P99TTFT: 443459270, Goodput: 10.206806998909045, SLOAttainment: 0, Preemptions: 1},
				{Priority: 1, Submitted: 20, Finished: 14, Shed: 6, P50TTFT: 81838739, P99TTFT: 170016346, Goodput: 17.49738342670122, SLOAttainment: 0.21428571428571427, Preemptions: 5},
				{Priority: 2, Submitted: 16, Finished: 5, Shed: 11, P50TTFT: 2052664, P99TTFT: 2783100, Goodput: 7.290576427792175, SLOAttainment: 1, Preemptions: 0},
			}}},
		{name: "plain/deadlines", want: reportPin{
			Submitted: 50, Finished: 50,
			Duration: 323978587, ReqPerSec: 154.33118732627847, Goodput: 135.81144484712505, SLOAttainment: 0.88,
			P50TTFT: 2286077, P99TTFT: 3923017, P50E2E: 55534874, P99E2E: 84951209,
			HitRate: 0.75, MeanKVUtil: 0.313812255859375, PeakKVUtil: 0.39801025390625, GeneratedTokens: 1878, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 50, Finished: 50, Shed: 0, P50TTFT: 2286077, P99TTFT: 3923017, Goodput: 135.81144484712505, SLOAttainment: 0.88, Preemptions: 0},
			}}},
		{name: "mixed/deadlines", mixed: true, want: reportPin{
			Submitted: 53, Finished: 30, Shed: 22, Cancelled: 1,
			Duration: 685816828, ReqPerSec: 43.74345856675305, Goodput: 34.99476685340244, SLOAttainment: 0.8, ShedRate: 0.41509433962264153,
			P50TTFT: 114328364, P99TTFT: 443459270, P50E2E: 180145245, P99E2E: 483974312,
			HitRate: 0.739352380952381, MeanKVUtil: 0.98992919921875, PeakKVUtil: 0.9990234375, Preemptions: 6, GeneratedTokens: 1176,
			TierHitRate: 0.4723809523809524, RestoredTokens: 6200, RecomputedTokens: 29, SwapOuts: 521, SwapIns: 647, P99Restore: 13107, PerPriority: []PriorityReport{
				{Priority: 0, Submitted: 17, Finished: 11, Shed: 5, P50TTFT: 405228843, P99TTFT: 443459270, Goodput: 10.206806998909045, SLOAttainment: 0.6363636363636364, Preemptions: 1},
				{Priority: 1, Submitted: 20, Finished: 14, Shed: 6, P50TTFT: 81838739, P99TTFT: 170016346, Goodput: 17.49738342670122, SLOAttainment: 0.8571428571428571, Preemptions: 5},
				{Priority: 2, Submitted: 16, Finished: 5, Shed: 11, P50TTFT: 2052664, P99TTFT: 2783100, Goodput: 7.290576427792175, SLOAttainment: 1, Preemptions: 0},
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
