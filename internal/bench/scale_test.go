package bench

import (
	"sync"
	"testing"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/workload"
)

// TestRunScaleSmall: the scale harness is wired end to end — the
// streamed run finishes its whole workload and the fidelity anchors
// are shard-count invariant.
func TestRunScaleSmall(t *testing.T) {
	run := func(shards int) ScaleResult {
		res, err := RunScale(ScaleOptions{Requests: 1600, Replicas: 4, Shards: shards, Rate: 2000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Finished == 0 || a.Finished != a.Requests {
		t.Fatalf("finished %d of %d", a.Finished, a.Requests)
	}
	if a.Finished != b.Finished || a.SimDuration != b.SimDuration || a.HitRate != b.HitRate {
		t.Fatalf("sim outcome moved with shard count: %+v vs %+v", a, b)
	}
	if a.PeakHeapBytes <= 0 {
		t.Fatal("heap watcher recorded nothing")
	}
}

// TestScaleSmoke is the CI scale gate (make scale-smoke): a
// ~100k-request streamed ServeStream pass on the 16-replica fleet,
// asserting the workload is never materialized — peak live heap stays
// far below the ~450 MB the request slice alone would cost — and that
// the fleet serves the entire stream. Run under -race by the Makefile
// target; skipped in -short runs (the race suite covers correctness).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke is its own CI target (make scale-smoke)")
	}
	res, err := RunScale(ScaleOptions{Requests: 100_000, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != res.Requests {
		t.Fatalf("finished %d of %d requests", res.Finished, res.Requests)
	}
	const heapBound = 320 << 20
	if res.PeakHeapBytes > heapBound {
		t.Fatalf("peak heap %d MB exceeds the %d MB streaming bound — is the workload being materialized?",
			res.PeakHeapBytes>>20, int64(heapBound)>>20)
	}
	t.Logf("scale smoke: %d requests, wall %v, peak heap %d MB, %0.f req/wall-s",
		res.Requests, res.Wall, res.PeakHeapBytes>>20, res.ReqPerWallSec)
	t.Run("fleet+chaos", scaleSmokeFleetChaos)
}

// scaleSmokeFleetChaos streams ~20k requests through a 4-replica fleet
// with the store, rebalancing migration and one crash/restart on, so
// `make scale-smoke` runs every barrier-section operation under the
// race detector at 4 shards: every request reaches exactly one terminal
// event and the stream is never materialized.
func scaleSmokeFleetChaos(t *testing.T) {
	const groups, perGroup, rate = 64, 320, 1000
	const n = groups * perGroup
	span := time.Duration(float64(n) / rate * float64(time.Second))
	var mu sync.Mutex
	terminals := make(map[int64]int, n)
	c, err := cluster.New(cluster.Config{
		Spec: textSpec("bench-scale"), Replicas: 4, Policy: cluster.LeastLoaded,
		CapacityBytes: 16 << 20, HostTierBytes: 64 << 20,
		PreemptMode: engine.PreemptSwap,
		Fleet:       cluster.FleetPolicy{Store: true, Migrate: true, ImbalanceThreshold: 1.5},
		Chaos: cluster.ChaosPolicy{
			Plan:    chaos.NewPlan(42).Crash(3, span*2/5).Restart(3, span*3/4),
			Recover: true,
		},
		EventSink: func(_ int, ev engine.Event) {
			if ev.Type.Terminal() {
				mu.Lock()
				terminals[ev.ID]++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.PoissonSource(
		workload.NewGen(42).PrefixGroupsSource(groups, perGroup, 512, 48), workload.NewGen(43), rate)
	w := watchHeap()
	res, err := c.ServeStream(src, cluster.StreamConfig{Shards: 4})
	peak := w.done()
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Restarts != 1 || res.LostRequests != 0 {
		t.Fatalf("crashes/restarts/lost = %d/%d/%d, want 1/1/0", res.Crashes, res.Restarts, res.LostRequests)
	}
	if got := res.Finished + res.Failed + res.Shed; got != n || len(terminals) != n {
		t.Fatalf("%d terminal results and %d terminated IDs for %d requests", got, len(terminals), n)
	}
	for id, k := range terminals {
		if k != 1 {
			t.Fatalf("request %d reached %d terminal events", id, k)
		}
	}
	const heapBound = 96 << 20
	if peak > heapBound {
		t.Fatalf("peak heap %d MB exceeds the %d MB streaming bound", peak>>20, int64(heapBound)>>20)
	}
	t.Logf("fleet+chaos smoke: %d requests, %d migrations, %d peer hits, %d redispatched, peak heap %d MB",
		n, res.Migrations, res.PeerHits, res.Redispatched, peak>>20)
}
