package cluster

import (
	"testing"

	"jenga/internal/metrics"
	"jenga/internal/workload"
)

func testLoads(n int) []Load {
	loads := make([]Load, n)
	for i := range loads {
		loads[i].Replica = i
	}
	return loads
}

func TestRoundRobinCycles(t *testing.T) {
	r, err := NewRouter(RoundRobin, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := testLoads(4)
	req := &workload.Request{}
	for i := 0; i < 40; i++ {
		if got := r.Route(req, loads); got != i%4 {
			t.Fatalf("route %d = replica %d, want %d", i, got, i%4)
		}
	}
}

// TestAffinityDeterministic checks that prefix-affinity placement is a
// pure function of the prompt prefix: equal prefixes land on the same
// replica, across requests and across independently built routers.
func TestAffinityDeterministic(t *testing.T) {
	const replicas = 8
	gen := workload.NewGen(7)
	reqs := gen.PrefixGroups(12, 6, 300, 64)

	r1, err := NewRouter(PrefixAffinity, replicas, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRouter(PrefixAffinity, replicas, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	loads := testLoads(replicas)
	groupReplica := map[int64]int{}
	for i := range reqs {
		a := r1.Route(&reqs[i], loads)
		b := r2.Route(&reqs[i], loads)
		if a != b {
			t.Fatalf("request %d: routers disagree (%d vs %d)", i, a, b)
		}
		if prev, ok := groupReplica[reqs[i].Group]; ok && prev != a {
			t.Fatalf("group %d split across replicas %d and %d", reqs[i].Group, prev, a)
		}
		groupReplica[reqs[i].Group] = a
	}
	if len(groupReplica) != 12 {
		t.Fatalf("expected 12 prefix groups, saw %d", len(groupReplica))
	}
}

// TestAffinitySpreadsGroups checks the ring actually uses the fleet:
// with many more groups than replicas, every replica should own at
// least one group (vnode smoothing).
func TestAffinitySpreadsGroups(t *testing.T) {
	const replicas = 4
	gen := workload.NewGen(11)
	reqs := gen.PrefixGroups(64, 1, 300, 16)
	r, err := NewRouter(PrefixAffinity, replicas, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	loads := testLoads(replicas)
	seen := map[int]int{}
	for i := range reqs {
		seen[r.Route(&reqs[i], loads)]++
	}
	for rep := 0; rep < replicas; rep++ {
		if seen[rep] == 0 {
			t.Fatalf("replica %d received no prefix groups: %v", rep, seen)
		}
	}
}

// TestLeastLoadedBalance checks the balance bound: on a uniform
// all-at-once stream, least-loaded routing keeps the max/mean routed
// token imbalance within a few percent (one request's worth of slack).
func TestLeastLoadedBalance(t *testing.T) {
	const replicas = 5
	r, err := NewRouter(LeastLoaded, replicas, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGen(3)
	reqs := gen.ShareGPT(200)
	loads := testLoads(replicas)
	for i := range reqs {
		rep := r.Route(&reqs[i], loads)
		work := int64(reqs[i].PromptLen() + reqs[i].OutputLen)
		loads[rep].Requests++
		loads[rep].RoutedTokens += work
		loads[rep].Outstanding += float64(work)
	}
	shares := make([]float64, replicas)
	for i, l := range loads {
		if l.Requests == 0 {
			t.Fatalf("replica %d got no requests", i)
		}
		shares[i] = float64(l.RoutedTokens)
	}
	if imb := metrics.Imbalance(shares); imb > 1.10 {
		t.Fatalf("least-loaded imbalance %.3f exceeds 1.10 (shares %v)", imb, shares)
	}
}

// TestLeastLoadedPrefersIdle checks the core property directly: a
// replica with zero outstanding work wins over loaded ones.
func TestLeastLoadedPrefersIdle(t *testing.T) {
	r, _ := NewRouter(LeastLoaded, 3, 0, 0)
	loads := testLoads(3)
	loads[0].Outstanding = 5000
	loads[1].Outstanding = 100
	req := &workload.Request{}
	if got := r.Route(req, loads); got != 2 {
		t.Fatalf("routed to %d, want idle replica 2", got)
	}
}
