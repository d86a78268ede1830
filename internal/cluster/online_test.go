package cluster

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/workload"
)

func onlineWorkload(seed int64, deadline time.Duration) []workload.Request {
	gen := workload.NewGen(seed)
	reqs := gen.PrefixGroups(15, 12, 512, 48)
	gen.PoissonArrivals(reqs, 300)
	// Client-side jitter of up to 2 ms leaves the stream out of arrival
	// order.
	jitter := rand.New(rand.NewSource(seed))
	for i := range reqs {
		reqs[i].Arrival += time.Duration(jitter.Int63n(int64(2 * time.Millisecond)))
	}
	if deadline > 0 {
		workload.SetDeadlines(reqs, deadline)
	}
	return reqs
}

// TestServeOnlineInvariants: every routed request terminates in
// exactly one state, and the online scorecard is internally
// consistent.
func TestServeOnlineInvariants(t *testing.T) {
	c, err := New(Config{
		Spec: testSpec(), Replicas: 4, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity,
		SLOTTFT:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := onlineWorkload(3, time.Second)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished+res.Failed+res.Shed != len(reqs) {
		t.Fatalf("finished %d + failed %d + shed %d != %d requests",
			res.Finished, res.Failed, res.Shed, len(reqs))
	}
	if res.Finished == 0 {
		t.Fatal("nothing finished")
	}
	if res.SLOAttainment < 0 || res.SLOAttainment > 1 {
		t.Fatalf("attainment %f out of range", res.SLOAttainment)
	}
	if res.Goodput > res.ReqPerSec {
		t.Fatalf("goodput %f above req/s %f", res.Goodput, res.ReqPerSec)
	}
	total := 0
	for _, pr := range res.PerReplica {
		total += pr.Requests
	}
	if total != len(reqs) {
		t.Fatalf("routed %d != %d", total, len(reqs))
	}
}

// TestServeOnlineDeterministic: the online drive is a pure function of
// the stream.
func TestServeOnlineDeterministic(t *testing.T) {
	run := func() *Result {
		c, err := New(Config{
			Spec: testSpec(), Replicas: 3, Policy: PrefixAffinity,
			CapacityBytes: perReplicaCapacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ServeOnline(onlineWorkload(11, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Finished != b.Finished || a.HitRate != b.HitRate ||
		a.P99TTFT != b.P99TTFT || a.Imbalance != b.Imbalance {
		t.Errorf("online serve not deterministic: %+v vs %+v", a, b)
	}
}

// liveRecordingRouter asserts the cluster hands routers live replica
// state and then delegates to round-robin.
type liveRecordingRouter struct {
	rr       roundRobinRouter
	sawLive  int
	sawUsage int
	sawQueue int
	// sawStale counts loads that are not Live yet carry live fields.
	sawStale int
}

func (r *liveRecordingRouter) Name() string { return "live-recording" }

func (r *liveRecordingRouter) Route(req *workload.Request, loads []Load) int {
	for _, l := range loads {
		if l.Live {
			r.sawLive++
			if l.Usage.Free+l.Usage.Used+l.Usage.Cached+l.Usage.Wasted > 0 {
				r.sawUsage++
			}
			if l.QueueDepth > 0 || l.OutstandingTokens > 0 {
				r.sawQueue++
			}
		} else if l.QueueDepth != 0 || l.OutstandingTokens != 0 || l.Usage.Free+l.Usage.Used+l.Usage.Cached+l.Usage.Wasted != 0 {
			r.sawStale++
		}
	}
	return r.rr.Route(req, loads)
}

// TestServeOnlineRoutersSeeLiveState: online routing decisions observe
// real per-replica memory accounting and queue state, not estimates.
func TestServeOnlineRoutersSeeLiveState(t *testing.T) {
	rec := &liveRecordingRouter{}
	c, err := New(Config{
		Spec: testSpec(), Replicas: 3, Router: rec,
		CapacityBytes: perReplicaCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := onlineWorkload(13, 0)
	if _, err := c.ServeOnline(reqs); err != nil {
		t.Fatal(err)
	}
	if rec.sawLive != 3*len(reqs) {
		t.Errorf("live loads seen %d, want %d", rec.sawLive, 3*len(reqs))
	}
	if rec.sawUsage != rec.sawLive {
		t.Errorf("usage populated on %d of %d live loads", rec.sawUsage, rec.sawLive)
	}
	if rec.sawQueue == 0 {
		t.Error("no router decision ever saw a non-empty queue at 300 req/s")
	}
	// The batch path must keep handing out estimate-only loads.
	rec2 := &liveRecordingRouter{}
	c2, err := New(Config{Spec: testSpec(), Replicas: 3, Router: rec2, CapacityBytes: perReplicaCapacity})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Serve(onlineWorkload(13, 0)); err != nil {
		t.Fatal(err)
	}
	if rec2.sawLive != 0 || rec2.sawStale != 0 {
		t.Errorf("batch Serve handed routers %d live loads and %d with live fields set, want 0 and 0",
			rec2.sawLive, rec2.sawStale)
	}
}

// TestServeOnlineAdmissionSheds: a fleet-wide SLO admission policy
// sheds under overload instead of failing, and goodput stays positive.
func TestServeOnlineAdmissionSheds(t *testing.T) {
	c, err := New(Config{
		Spec: testSpec(), Replicas: 2, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity,
		Admission:     engine.SLOAdmission{TTFT: 2 * time.Millisecond},
		SLOTTFT:       2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := onlineWorkload(17, 0)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("tight SLO admission shed nothing at 300 req/s on 2 replicas")
	}
	if res.Finished == 0 || res.Goodput <= 0 {
		t.Fatalf("overloaded fleet served nothing: %+v", res)
	}
	if res.Finished+res.Failed+res.Shed != len(reqs) {
		t.Fatalf("accounting broken: %d+%d+%d != %d", res.Finished, res.Failed, res.Shed, len(reqs))
	}
}

// TestServeOnlineWarmCache: back-to-back online serves keep replica
// caches warm, like the batch path.
func TestServeOnlineWarmCache(t *testing.T) {
	c, err := New(Config{
		Spec: testSpec(), Replicas: 2, Policy: PrefixAffinity,
		CapacityBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.ServeOnline(onlineWorkload(19, 0))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.ServeOnline(onlineWorkload(19, 0))
	if err != nil {
		t.Fatal(err)
	}
	if warm.HitRate <= cold.HitRate {
		t.Errorf("warm hit rate %.3f not above cold %.3f", warm.HitRate, cold.HitRate)
	}
}

// TestServeOnlineOneReplicaMatchesEngineRun: with one replica the fleet
// roll-up, fed record by record from the retire sink, reads exactly the
// TTFT and E2E percentiles that Engine.Run's retained records give.
func TestServeOnlineOneReplicaMatchesEngineRun(t *testing.T) {
	reqs := onlineWorkload(17, 0)
	res, err := testCluster(t, 1, RoundRobin, perReplicaCapacity).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: perReplicaCapacity, EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Spec: spec, Device: gpu.H100(), Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := run.Latency(0)
	if res.Finished != run.Finished || len(run.PerRequest) != run.Finished || res.Finished == 0 {
		t.Fatalf("cluster finished %d, engine %d with %d records", res.Finished, run.Finished, len(run.PerRequest))
	}
	got := res.Latency
	if got.P50TTFT != want.P50TTFT || got.P99TTFT != want.P99TTFT || got.P50E2E != want.P50E2E || got.P99E2E != want.P99E2E {
		t.Fatalf("cluster TTFT p50/p99 %v/%v E2E p50/p99 %v/%v, engine %v/%v %v/%v",
			got.P50TTFT, got.P99TTFT, got.P50E2E, got.P99E2E, want.P50TTFT, want.P99TTFT, want.P50E2E, want.P99E2E)
	}
	for _, pr := range res.PerReplica {
		if len(pr.Result.PerRequest) != 0 {
			t.Fatalf("replica %d retained %d records; the fleet roll-up takes them", pr.Replica, len(pr.Result.PerRequest))
		}
	}
}

// TestServeLeavesCallerSlice: Serve and ServeOnline only read the
// caller's slice — element by element it is what it was, sorted or not —
// and an unsorted slice is served in arrival order, as its sorted copy
// is.
func TestServeLeavesCallerSlice(t *testing.T) {
	byArrival := func(a, b workload.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }
	unsorted := onlineWorkload(5, 0)
	if slices.IsSortedFunc(unsorted, byArrival) {
		t.Fatal("the jittered workload is already in arrival order")
	}
	sorted := slices.Clone(unsorted)
	slices.SortStableFunc(sorted, byArrival)
	for _, serve := range []struct {
		name string
		run  func(c *Cluster, reqs []workload.Request) (*Result, error)
	}{
		{"Serve", (*Cluster).Serve},
		{"ServeOnline", (*Cluster).ServeOnline},
	} {
		var results [2]*Result
		for i, reqs := range [2][]workload.Request{sorted, unsorted} {
			before := make([]workload.Request, len(reqs))
			for j, r := range reqs {
				r.Shared, r.Prompt = slices.Clone(r.Shared), slices.Clone(r.Prompt)
				before[j] = r
			}
			res, err := serve.run(testCluster(t, 3, LeastLoaded, perReplicaCapacity), reqs)
			if err != nil {
				t.Fatalf("%s: %v", serve.name, err)
			}
			for j := range reqs {
				if !reflect.DeepEqual(reqs[j], before[j]) {
					t.Fatalf("%s: the caller's request %d changed: now ID %d at %v, was ID %d at %v (or its prompt changed)",
						serve.name, j, reqs[j].ID, reqs[j].Arrival, before[j].ID, before[j].Arrival)
				}
			}
			results[i] = res
		}
		if s, u := results[0], results[1]; s.Latency != u.Latency || s.Totals != u.Totals || s.Imbalance != u.Imbalance {
			t.Fatalf("%s: an unsorted slice served differently from its sorted copy:\n%+v\n%+v", serve.name, u, s)
		}
	}
}
