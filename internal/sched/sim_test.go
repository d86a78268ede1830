package sched_test

// The scheduler-equivalence matrix: every built-in policy drives the
// real engine on seeded workloads and must be (a) deterministic —
// two runs from fresh engines produce identical results to the
// nanosecond, (b) starvation-free — a finite 2× overload drains
// completely, every request finishes, and (c) true to its contract —
// FairShare bounds the worst tenant's wait and beats FCFS's fairness
// on a skewed stream, Priority preempts lower classes at admission,
// SJF finishes short work first.

import (
	"sort"
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

func simSpec() *model.Spec {
	return &model.Spec{
		Name: "sched-sim", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256},
			{Name: "window", Kind: model.SlidingWindow, Layers: 3, BytesPerToken: 256, Window: 64},
		},
	}
}

func simDevice() gpu.Device {
	return gpu.Device{Name: "sim-gpu", MemBytes: 1 << 30, FLOPS: 50e12, MemBW: 500e9,
		StepOverhead: time.Millisecond}
}

func simEngine(t *testing.T, capacity int64, s sched.Scheduler) *engine.Engine {
	t.Helper()
	mgr, err := core.New(core.Config{
		Spec: simSpec(), CapacityBytes: capacity, TokensPerPage: 8,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Spec: simSpec(), Device: simDevice(), Manager: mgr,
		MaxBatchTokens: 512, MaxPrefills: 2, Scheduler: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// builtins enumerates the policy matrix.
func builtins() []sched.Scheduler {
	return []sched.Scheduler{
		sched.NewFCFS(), sched.NewPriority(), sched.NewSJF(), sched.NewFairShare(),
	}
}

// matrixWorkload is the seeded mixed stream every matrix entry runs:
// six prefix groups, two priority classes, deadlines, Poisson
// arrivals at roughly 2× the service rate the capacity sustains.
func matrixWorkload(seed int64, n int, rate float64) []workload.Request {
	g := workload.NewGen(seed)
	reqs := g.PrefixGroups(6, (n+5)/6, 400, 100)
	g.PoissonArrivals(reqs, rate)
	for i := range reqs {
		reqs[i].Priority = i % 2
	}
	workload.SetDeadlines(reqs, 2*time.Second)
	return reqs
}

// TestSchedulerDeterminism: two fresh engines under the same policy
// and seed must agree on every metric, durations to the nanosecond.
func TestSchedulerDeterminism(t *testing.T) {
	for _, s := range builtins() {
		var results []*engine.Result
		for run := 0; run < 2; run++ {
			e := simEngine(t, 4<<20, s)
			res, err := e.Run(matrixWorkload(42, 72, 150))
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			results = append(results, res)
		}
		a, b := results[0], results[1]
		if a.Steps != b.Steps || a.Duration != b.Duration || a.Finished != b.Finished ||
			a.Preemptions != b.Preemptions || a.MeanTTFT != b.MeanTTFT || a.MeanE2E != b.MeanE2E ||
			a.CachedPromptTokens != b.CachedPromptTokens || a.GeneratedTokens != b.GeneratedTokens ||
			a.MeanKVUtil != b.MeanKVUtil {
			t.Errorf("%s: two seeded runs diverged:\n  %+v\n  %+v", s.Name(), a, b)
		}
	}
}

// TestNoStarvationUnderOverload: a finite burst at ~2× sustainable
// rate must drain completely under every policy — nothing starves,
// nothing fails, nothing livelocks.
func TestNoStarvationUnderOverload(t *testing.T) {
	const n = 96
	for _, s := range builtins() {
		e := simEngine(t, 2<<20, s)
		res, err := e.Run(matrixWorkload(7, n, 400))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Finished != n || res.Failed != 0 {
			t.Errorf("%s: finished %d failed %d of %d under overload", s.Name(), res.Finished, res.Failed, n)
		}
	}
}

// skewedWorkload is two equal tenants with tenant A's burst queued
// entirely ahead of tenant B's: under FCFS the whole of B waits
// behind the whole of A, while a fair scheduler interleaves the two
// backlogs — the head-of-line unfairness fair sharing exists to fix.
func skewedWorkload(seed int64) []workload.Request {
	g := workload.NewGen(seed)
	all := g.PrefixGroups(2, 24, 400, 100)
	workload.AllAtOnce(all)
	byGroup := workload.SplitByGroup(all)
	labels := make([]int64, 0, len(byGroup))
	for grp := range byGroup {
		labels = append(labels, grp)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	var out []workload.Request
	for _, grp := range labels {
		out = append(out, byGroup[grp]...)
	}
	return out
}

// groupMeanTTFT folds per-request metrics into per-group mean TTFTs.
func groupMeanTTFT(res *engine.Result) map[int64]time.Duration {
	sum := map[int64]time.Duration{}
	n := map[int64]int{}
	for _, rm := range res.PerRequest {
		sum[rm.Group] += rm.TTFT
		n[rm.Group]++
	}
	out := map[int64]time.Duration{}
	for g := range sum {
		out[g] = sum[g] / time.Duration(n[g])
	}
	return out
}

// TestFairShareBoundsGroupWait: tenant B's backlog is queued entirely
// behind tenant A's, and the combined backlog is far beyond what the
// replica serves concurrently — sustained overload. A scheduler
// cannot lower the total wait (that is conserved), only distribute
// it: FCFS gives A a tiny wait and B the whole backlog's, FairShare
// must serve the two backlogs alongside each other. The starvation
// bound is relative: the worst tenant's mean TTFT must stay within
// 25% of the fleet's mean (FCFS fails this by construction), and
// wait-fairness (Jain's index over per-group mean TTFT) must beat
// FCFS's and clear an absolute 0.9 bound.
func TestFairShareBoundsGroupWait(t *testing.T) {
	run := func(s sched.Scheduler) *engine.Result {
		e := simEngine(t, 2<<20, s)
		res, err := e.Run(skewedWorkload(11))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Finished != 48 {
			t.Fatalf("%s: finished %d of 48", s.Name(), res.Finished)
		}
		return res
	}
	// worstRatio is max group mean TTFT over the mean of group means;
	// jain is Jain's index over the group means.
	stats := func(res *engine.Result) (worstRatio, jain float64) {
		means := groupMeanTTFT(res)
		var worst, sum float64
		var xs []float64
		for _, m := range means {
			if m.Seconds() > worst {
				worst = m.Seconds()
			}
			sum += m.Seconds()
			xs = append(xs, m.Seconds())
		}
		return worst / (sum / float64(len(means))), metrics.Jain(xs)
	}
	fcfsRatio, fcfsJain := stats(run(sched.NewFCFS()))
	fairRatio, fairJain := stats(run(sched.NewFairShare()))
	if fairRatio > 1.25 {
		t.Errorf("fairshare worst tenant waits %.2f× the fleet mean, want ≤ 1.25×", fairRatio)
	}
	if fairRatio >= fcfsRatio {
		t.Errorf("fairshare worst-wait ratio %.2f not below fcfs %.2f", fairRatio, fcfsRatio)
	}
	if fairJain <= fcfsJain {
		t.Errorf("fairshare wait-fairness %.3f not above fcfs %.3f", fairJain, fcfsJain)
	}
	if fairJain < 0.9 {
		t.Errorf("fairshare wait-fairness %.3f below the 0.9 bound", fairJain)
	}
}

// TestPriorityAdmissionPreempts: a high-priority burst landing on a
// memory-full engine serving low-priority decodes must preempt its
// way in — low-priority requests are recomputed (not dropped: all
// finish) and the burst's TTFT stays far below the low class's.
func TestPriorityAdmissionPreempts(t *testing.T) {
	g := workload.NewGen(3)
	low := g.PrefixGroups(2, 8, 500, 400)
	workload.AllAtOnce(low)
	burst := g.PrefixGroups(1, 4, 500, 20)
	for i := range burst {
		burst[i].Priority = 5
		burst[i].Arrival = 60 * time.Millisecond
	}
	reqs := append(low, burst...)

	run := func(s sched.Scheduler) *engine.Result {
		e := simEngine(t, 1<<20, s)
		res, err := e.Run(reqs)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res
	}
	classTTFT := func(res *engine.Result) (hi, lo time.Duration) {
		var nHi, nLo int
		for _, rm := range res.PerRequest {
			if rm.Priority > 0 {
				hi += rm.TTFT
				nHi++
			} else {
				lo += rm.TTFT
				nLo++
			}
		}
		return hi / time.Duration(nHi), lo / time.Duration(nLo)
	}

	prio := run(sched.NewPriority())
	if prio.Finished != len(reqs) {
		t.Fatalf("priority: finished %d of %d — a class starved", prio.Finished, len(reqs))
	}
	if prio.Preemptions == 0 {
		t.Error("priority: the high-priority burst did not preempt on a full engine")
	}
	prioHi, prioLo := classTTFT(prio)
	if prioHi >= prioLo {
		t.Errorf("priority: high-class mean TTFT %v not below low-class %v", prioHi, prioLo)
	}
	// Against FCFS the burst must start strictly sooner.
	fcfsHi, _ := classTTFT(run(sched.NewFCFS()))
	if prioHi >= fcfsHi {
		t.Errorf("priority high-class TTFT %v not below fcfs %v", prioHi, fcfsHi)
	}
}

// TestSJFFavorsShortWork: with one long request ahead of many short
// ones in an all-at-once batch, SJF's mean TTFT over the short
// requests must not exceed FCFS's — shortest-remaining-first is the
// whole point.
func TestSJFFavorsShortWork(t *testing.T) {
	g := workload.NewGen(5)
	long := g.PrefixGroups(1, 2, 1500, 100)
	short := g.PrefixGroups(1, 12, 64, 16)
	reqs := append(long, short...)
	workload.AllAtOnce(reqs)

	meanShortTTFT := func(s sched.Scheduler) time.Duration {
		e := simEngine(t, 2<<20, s)
		res, err := e.Run(reqs)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		var sum time.Duration
		var n int
		for _, rm := range res.PerRequest {
			if rm.Tokens < 500 {
				sum += rm.TTFT
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no short requests finished", s.Name())
		}
		return sum / time.Duration(n)
	}
	if sjf, fcfs := meanShortTTFT(sched.NewSJF()), meanShortTTFT(sched.NewFCFS()); sjf > fcfs {
		t.Errorf("sjf short-request mean TTFT %v above fcfs %v", sjf, fcfs)
	}
}

// TestQueuePosReachesAdmission: the scheduler's rank is surfaced to
// admission policies as AdmissionState.QueuePos — under a priority
// scheduler a high-priority arrival ranks ahead of the low-priority
// backlog even though the nominal queue is deep.
func TestQueuePosReachesAdmission(t *testing.T) {
	type obs struct {
		prio int
		pos  int
		deep int
	}
	var seen []obs
	capture := admissionFunc(func(req *workload.Request, s engine.AdmissionState) engine.AdmissionDecision {
		seen = append(seen, obs{prio: req.Priority, pos: s.QueuePos, deep: s.Queued})
		return engine.Admit
	})
	mgr, err := core.New(core.Config{
		Spec: simSpec(), CapacityBytes: 1 << 20, TokensPerPage: 8,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Spec: simSpec(), Device: simDevice(), Manager: mgr,
		MaxBatchTokens: 256, MaxPrefills: 1, MaxRunning: 2,
		Scheduler: sched.NewPriority(), Admission: capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGen(9)
	reqs := g.PrefixGroups(1, 12, 600, 50)
	workload.AllAtOnce(reqs)
	hi := g.PrefixGroups(1, 1, 600, 50)
	hi[0].Priority = 5
	hi[0].Arrival = 200 * time.Millisecond
	if _, err := e.Run(append(reqs, hi...)); err != nil {
		t.Fatal(err)
	}
	var hiObs *obs
	for i := range seen {
		if seen[i].prio == 5 {
			hiObs = &seen[i]
		}
	}
	if hiObs == nil {
		t.Fatal("admission never saw the high-priority arrival")
	}
	if hiObs.deep == 0 {
		t.Fatal("test needs a backlog at the high-priority arrival instant")
	}
	if hiObs.pos != 0 {
		t.Errorf("high-priority QueuePos = %d over a %d-deep backlog, want 0", hiObs.pos, hiObs.deep)
	}
}

// admissionFunc adapts a function to engine.AdmissionPolicy.
type admissionFunc func(*workload.Request, engine.AdmissionState) engine.AdmissionDecision

func (admissionFunc) Name() string { return "capture" }
func (f admissionFunc) Decide(r *workload.Request, s engine.AdmissionState) engine.AdmissionDecision {
	return f(r, s)
}
