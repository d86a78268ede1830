package cluster

import (
	"testing"

	"jenga/internal/model"
	"jenga/internal/workload"
)

// testSpec is a small full-attention model: 2 KiB of KV per token, so
// per-replica cache pressure is easy to dial in with CapacityBytes.
func testSpec() *model.Spec {
	return &model.Spec{
		Name: "cluster-test", Params: 100_000_000, WeightBytes: 2, HiddenSize: 512,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 4, BytesPerToken: 512},
		},
	}
}

func testCluster(t *testing.T, replicas int, policy RouterPolicy, capacity int64) *Cluster {
	t.Helper()
	c, err := New(Config{
		Spec:          testSpec(),
		Replicas:      replicas,
		Policy:        policy,
		CapacityBytes: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sharedPrefixStream is the routing-sensitive workload: 15 prefix
// classes (deliberately not a multiple of the replica counts used in
// tests, so round-robin cannot accidentally align classes to replicas)
// whose combined prefix KV exceeds any single replica's cache.
func sharedPrefixStream(seed int64) []workload.Request {
	gen := workload.NewGen(seed)
	reqs := gen.PrefixGroups(15, 12, 512, 48)
	workload.AllAtOnce(reqs)
	return reqs
}

// perReplicaCapacity holds ~5 of the 15 × 512-token prefixes (at 2 KiB
// per token), so a replica that sees every class must keep evicting.
const perReplicaCapacity = 6 << 20

func TestServeInvariants(t *testing.T) {
	c := testCluster(t, 4, RoundRobin, perReplicaCapacity)
	reqs := sharedPrefixStream(21)
	res, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished+res.Failed != len(reqs) {
		t.Fatalf("finished %d + failed %d != %d requests", res.Finished, res.Failed, len(reqs))
	}
	if len(res.PerReplica) != 4 {
		t.Fatalf("PerReplica has %d entries, want 4", len(res.PerReplica))
	}
	total := 0
	for _, pr := range res.PerReplica {
		total += pr.Requests
		if pr.Result == nil {
			t.Fatalf("replica %d has no result", pr.Replica)
		}
	}
	if total != len(reqs) {
		t.Fatalf("routed %d requests, want %d", total, len(reqs))
	}
	if res.Duration <= 0 || res.ReqPerSec <= 0 {
		t.Fatalf("degenerate aggregate: duration %v, req/s %f", res.Duration, res.ReqPerSec)
	}
	if res.Imbalance < 1 {
		t.Fatalf("imbalance %.3f below 1", res.Imbalance)
	}
}

// TestRouteThenServeAgree checks that one pass does not perturb the
// next: stateful built-in routers reset per pass, so two Serve calls on
// one cluster place every request identically. 55 requests over 4
// round-robin replicas leave the cursor off zero, so a router that kept
// its state would shift the second pass's assignment.
func TestRouteThenServeAgree(t *testing.T) {
	c := testCluster(t, 4, RoundRobin, perReplicaCapacity)
	reqs := sharedPrefixStream(55)[:55]
	first, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range second.PerReplica {
		if was := first.PerReplica[i]; pr.Requests != was.Requests || pr.RoutedTokens != was.RoutedTokens {
			t.Fatalf("replica %d: first pass routed %d requests (%d tokens), second %d (%d)",
				i, was.Requests, was.RoutedTokens, pr.Requests, pr.RoutedTokens)
		}
	}
}

// TestServeDeterministic checks that two identically configured
// clusters produce identical placements and aggregates even though
// replicas run on concurrent goroutines.
func TestServeDeterministic(t *testing.T) {
	a := testCluster(t, 4, PrefixAffinity, perReplicaCapacity)
	b := testCluster(t, 4, PrefixAffinity, perReplicaCapacity)
	reqs := sharedPrefixStream(33)
	ra, err := a.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Finished != rb.Finished || ra.Duration != rb.Duration || ra.HitRate != rb.HitRate {
		t.Fatalf("nondeterministic serve: %+v vs %+v", ra, rb)
	}
	for i := range ra.PerReplica {
		if ra.PerReplica[i].Requests != rb.PerReplica[i].Requests ||
			ra.PerReplica[i].RoutedTokens != rb.PerReplica[i].RoutedTokens {
			t.Fatalf("replica %d placement differs", i)
		}
	}
}

// TestServeConcurrentReplicas runs a wide fleet so `go test -race`
// exercises the replica goroutines against each other and against
// aggregation.
func TestServeConcurrentReplicas(t *testing.T) {
	c := testCluster(t, 8, LeastLoaded, perReplicaCapacity)
	gen := workload.NewGen(5)
	reqs := gen.PrefixGroups(15, 8, 256, 32)
	gen.PoissonArrivals(reqs, 500)
	res, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished+res.Failed != len(reqs) {
		t.Fatalf("finished %d + failed %d != %d", res.Finished, res.Failed, len(reqs))
	}
}

// TestWarmCacheAcrossServes checks that a second Serve on the same
// cluster reuses the replica caches left by the first (the engine Run
// reset keeps manager state).
func TestWarmCacheAcrossServes(t *testing.T) {
	c := testCluster(t, 4, PrefixAffinity, 64<<20)
	reqs := sharedPrefixStream(44)
	cold, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.HitRate <= cold.HitRate {
		t.Fatalf("warm hit rate %.3f not above cold %.3f", warm.HitRate, cold.HitRate)
	}
}

// TestAffinityBeatsRoundRobin is the tentpole acceptance check: on a
// shared-prefix workload over ≥4 replicas whose caches cannot each
// hold every prefix class, prefix-affinity routing must achieve a
// strictly higher fleet-wide prefix-cache hit rate than round-robin.
func TestAffinityBeatsRoundRobin(t *testing.T) {
	reqs := sharedPrefixStream(99)

	rr := testCluster(t, 4, RoundRobin, perReplicaCapacity)
	rrRes, err := rr.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	af := testCluster(t, 4, PrefixAffinity, perReplicaCapacity)
	afRes, err := af.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("round-robin hit rate %.3f (req/s %.1f), affinity hit rate %.3f (req/s %.1f)",
		rrRes.HitRate, rrRes.ReqPerSec, afRes.HitRate, afRes.ReqPerSec)
	if afRes.HitRate <= rrRes.HitRate {
		t.Fatalf("prefix-affinity hit rate %.3f not strictly above round-robin %.3f",
			afRes.HitRate, rrRes.HitRate)
	}
}
