package main

import (
	"os"
	"testing"
	"time"

	"jenga/internal/baseline"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/model"
	"jenga/internal/sched"
)

func testSpec(t *testing.T) *model.Spec {
	t.Helper()
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// A wrapped *core.Jenga must keep every optional capability the
// engine, the cluster and the fleet store assert for.
func TestWrappedJengaKeepsCapabilities(t *testing.T) {
	m, err := jengaManager(testSpec(t), 1<<28, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapManager(m, &coreCounters{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(core.TierManager); !ok {
		t.Error("wrapped Jenga lost TierManager (SwapOut, ExportPrefix, ImportPrefix, LookupFleet, SetTierObserver)")
	}
	if _, ok := w.(core.Forker); !ok {
		t.Error("wrapped Jenga lost Forker")
	}
	if _, ok := w.(core.Crasher); !ok {
		t.Error("wrapped Jenga lost Crasher")
	}
	if _, ok := w.(interface{ NotePeerFetch(skipped, failed int64) }); !ok {
		t.Error("wrapped Jenga lost NotePeerFetch")
	}
}

// A wrapped baseline must not gain a capability it never had: the
// engine would take the swap and fork paths against a manager that
// cannot serve them.
func TestWrappedPagedGainsNothing(t *testing.T) {
	p, err := baseline.NewPaged(baseline.Config{Spec: testSpec(t), CapacityBytes: 1 << 28, EnablePrefixCache: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapManager(p, &coreCounters{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(core.TierManager); ok {
		t.Error("wrapped Paged gained TierManager")
	}
	if _, ok := w.(core.Forker); ok {
		t.Error("wrapped Paged gained Forker")
	}
	if _, ok := w.(core.Crasher); ok {
		t.Error("wrapped Paged gained Crasher")
	}
}

// forkOnly has one capability of three; no decorator preserves that.
type forkOnly struct{ core.Manager }

func (forkOnly) Fork(parent, child *core.Sequence, now core.Tick) error { return nil }
func (forkOnly) DrainCopyBytes() int64                                  { return 0 }

func TestPartialCapabilitySetIsRefused(t *testing.T) {
	p, err := baseline.NewPaged(baseline.Config{Spec: testSpec(t), CapacityBytes: 1 << 28})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapManager(forkOnly{p}, &coreCounters{}); err == nil {
		t.Error("a manager with only Forker was wrapped; it would lose the capability silently")
	}
}

// noPreemptAnswer is a scheduler without the AdmissionPreempter
// capability: the engine must assume it preempts.
type noPreemptAnswer struct{ sched.Scheduler }

func TestWrappedSchedulerForwardsAdmissionPreempter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner sched.Scheduler
	}{
		{"fcfs", sched.NewFCFS()},
		{"priority", sched.NewPriority()},
		{"no answer", noPreemptAnswer{sched.NewFCFS()}},
	} {
		var w sched.Scheduler = &tracedSched{inner: tc.inner, c: &schedCounters{}}
		if _, ok := w.(sched.AdmissionPreempter); !ok {
			t.Fatalf("%s: wrapper does not implement AdmissionPreempter", tc.name)
		}
		if got, want := sched.CanAdmissionPreempt(w), sched.CanAdmissionPreempt(tc.inner); got != want {
			t.Errorf("%s: wrapped CanAdmissionPreempt = %v, bare = %v", tc.name, got, want)
		}
	}
}

// Every workload, at a small size, must produce bit-identical sim
// statistics bare and behind the decorators. online_overload is the
// tier + fleet store + migration + crash recovery ServeOnline run.
func TestDecoratorsAreTransparent(t *testing.T) {
	sizes := map[string]int{"fleet_stream": 2000, "online_overload": 900, "deep_queue_batch": 60, "hetero_churn": 200}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(o buildOpts) (*instance, *simStats) {
				inst, err := w.build(w, 7, sizes[w.name], o)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := inst.run()
				if err != nil {
					t.Fatal(err)
				}
				if err := checkPass(inst, sim, nil); err != nil {
					t.Fatal(err)
				}
				return inst, sim
			}
			_, bare := run(buildOpts{})
			tr := newTracer()
			inst, traced := run(buildOpts{tr: tr, serial: true})
			if *bare != *traced {
				t.Fatalf("sim statistics differ:\n bare   %+v\n traced %+v", *bare, *traced)
			}
			if bare.fingerprint() != traced.fingerprint() {
				t.Fatal("equal statistics, different fingerprints")
			}
			if w.name == "online_overload" && (bare.Crashes != 1 || bare.PeerHits == 0 || bare.Shed == 0) {
				t.Errorf("online_overload did not exercise crash, fleet store and shedding: %+v", *bare)
			}
			m := tr.layerMetrics(w, inst, traced, 1)
			for _, d := range perLayer {
				if _, ok := m[d.name]; !ok && !fixtureOrDerived(d.name) {
					t.Errorf("traced pass reports no %s", d.name)
				}
			}
			if m["core.reserve_calls"] == 0 || m["engine.steps"] == 0 {
				t.Errorf("decorators saw no work: reserve_calls=%v steps=%v", m["core.reserve_calls"], m["engine.steps"])
			}
		})
	}
}

// fixtureOrDerived names the per-layer metrics that do not come from a
// traced pass's counters (fixtures, the baseline rerun, run totals).
func fixtureOrDerived(name string) bool {
	for _, fx := range fixtures {
		if name == fx.ns || name == fx.allocs || name == fx.bytes {
			return true
		}
	}
	switch name {
	case "metrics.hist_observe_ns", "metrics.hist_merge_ns",
		"baseline.paged_sim_tokens_per_s", "core.sim_speedup_vs_paged",
		"host.serial_wall_s", "host.serial_cpu_s",
		"trace.overhead_frac", "trace.spans_written":
		return true
	}
	return false
}

func TestFingerprintCoversEveryField(t *testing.T) {
	a := simStats{Submitted: 10, Finished: 10, TokensPerS: 1.5}
	b := a
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("fingerprint is not a function of the statistics")
	}
	b.Restarts = 1 // the last field
	if a.fingerprint() == b.fingerprint() {
		t.Error("fingerprint ignores Restarts")
	}
	b = a
	b.TokensPerS = 1.5000000000000002 // one ulp
	if a.fingerprint() == b.fingerprint() {
		t.Error("fingerprint ignores a one-ulp change")
	}
}

func TestSpanLines(t *testing.T) {
	var id int64
	for id = 1; !sampled(id); id++ {
	}
	var other int64
	for other = 1; sampled(other); other++ {
	}
	s := &spanRecorder{perReplica: make([][]spanEvent, 2)}
	ev := func(rep int, id int64, typ engine.EventType, clock time.Duration) {
		s.sink(rep, engine.Event{Type: typ, ID: id, Clock: clock})
	}
	ev(0, id, engine.EventQueued, 1)
	ev(0, other, engine.EventQueued, 1) // not sampled
	ev(0, id, engine.EventMigrated, 2)
	ev(1, id, engine.EventQueued, 3)
	ev(1, id, engine.EventFirstToken, 4)
	ev(1, id, engine.EventToken, 5) // per-token events are dropped
	ev(1, id, engine.EventFinished, 9)
	lines := s.lines("w")
	if len(lines) != 3 {
		t.Fatalf("got %d spans, want request, prefill, decode: %+v", len(lines), lines)
	}
	req, prefill, decode := lines[0], lines[1], lines[2]
	if req.Span != "request" || req.Outcome != "finished" || req.Replica != 1 || req.SimStart != 1 || req.SimEnd != 9 {
		t.Errorf("request span: %+v", req)
	}
	if prefill.Parent != "request" || prefill.SimEnd != 4 || decode.SimStart != 4 || decode.SimEnd != 9 {
		t.Errorf("child spans: %+v %+v", prefill, decode)
	}
}

// BENCHMARK.json is generated from the workload and metric tables
// (jengaperf -describe); this keeps the committed file in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != describeJSON() {
		t.Error("BENCHMARK.json differs from `jengaperf -describe`; regenerate it")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics; the benchmark contract allows 128", n)
	}
	for _, w := range workloads {
		if why := w.describe(); len(why) > 200 {
			t.Errorf("%s: why is %d characters; the benchmark contract allows 200", w.name, len(why))
		}
	}
}

// The budget check precedes the work: passes that have to run fail
// with errBudget when they do not fit, passes that only fill -seconds
// are left out, and time spent before the process started counts.
func TestBudgetIsCheckedBeforeWork(t *testing.T) {
	r := &runner{opts: options{budget: time.Hour, seconds: 3600}}
	if more, err := r.another("a pass", 0, 3, now(), 0, time.Minute); !more || err != nil {
		t.Errorf("a pass that fits: more=%v err=%v", more, err)
	}
	if _, err := r.another("a pass", 0, 3, now(), 0, 2*time.Hour); err != errBudget {
		t.Errorf("a required pass that does not fit: err=%v, want errBudget", err)
	}
	// After three passes of 50 minutes each, a fourth would overrun.
	if more, err := r.another("a pass", 3, 3, now(), 50*time.Minute, time.Second); more || err != nil {
		t.Errorf("an extra pass that does not fit: more=%v err=%v, want it left out", more, err)
	}
	r.opts.spent = 59 * time.Minute
	if err := r.reserve("work", 2*time.Minute); err != errBudget {
		t.Errorf("-spent is not counted against -budget: err=%v", err)
	}
	r.opts.budget = 0
	if err := r.reserve("work", 1000*time.Hour); err != nil {
		t.Errorf("no budget, yet: %v", err)
	}
}
