package bench

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/model"
)

// scaleScenario is the scale scorecard's shape at test size: a streamed
// shared-prefix workload over load-oblivious routing.
func scaleScenario(requests, replicas, shards int, rate float64) Scenario {
	return Scenario{
		Spec: ScaleSpec(), Replicas: replicas, CapacityBytes: 64 << 20,
		Router:   cluster.PrefixAffinity,
		Requests: requests, Groups: 64, PrefixLen: 512, SuffixLen: 48, Rate: rate,
		Seed: 42, Streamed: true, Horizon: Stream, Shards: shards,
	}
}

// terminalCounter is an EventSink that counts terminal events per
// request ID.
type terminalCounter struct {
	mu   sync.Mutex
	seen map[int64]int
}

func (c *terminalCounter) sink(_ int, ev engine.Event) {
	if ev.Type.Terminal() {
		c.mu.Lock()
		c.seen[ev.ID]++
		c.mu.Unlock()
	}
}

// checkTerminalOnce asserts every one of the scenario's requests
// reached exactly one terminal outcome, by the result's counters and by
// the terminal events the engines emitted. A request lost with its
// crashed replica emits no event, so the events must cover the rest.
func checkTerminalOnce(t *testing.T, s Scenario, res *cluster.Result, c *terminalCounter) {
	t.Helper()
	n := s.RequestCount()
	if got := res.Finished + res.Failed + res.Shed + res.Cancelled + res.LostRequests; got != n {
		t.Fatalf("finished %d + failed %d + shed %d + cancelled %d + lost %d = %d, submitted %d",
			res.Finished, res.Failed, res.Shed, res.Cancelled, res.LostRequests, got, n)
	}
	if len(c.seen) != n-res.LostRequests {
		t.Fatalf("%d requests reached a terminal event, want %d (%d submitted, %d lost)",
			len(c.seen), n-res.LostRequests, n, res.LostRequests)
	}
	for id, k := range c.seen {
		if k != 1 {
			t.Fatalf("request %d reached %d terminal events", id, k)
		}
	}
}

// runCounted runs s with a terminal-event counter attached.
func runCounted(t *testing.T, s Scenario) (*cluster.Result, *terminalCounter) {
	t.Helper()
	c := &terminalCounter{seen: make(map[int64]int, s.RequestCount())}
	s.EventSink = c.sink
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

// TestMeasureSmall: the wall-clock harness is wired end to end — the
// streamed run finishes its whole workload and the fidelity anchors are
// shard-count invariant.
func TestMeasureSmall(t *testing.T) {
	run := func(shards int) Measured {
		m, err := Measure(scaleScenario(1600, 4, shards, 2000))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(1), run(4)
	if a.Finished != 1600 {
		t.Fatalf("finished %d of 1600", a.Finished)
	}
	if a.Finished != b.Finished || a.Duration != b.Duration || a.HitRate != b.HitRate {
		t.Fatalf("sim outcome moved with shard count: %+v vs %+v", a.Result, b.Result)
	}
	if a.PeakHeapBytes <= 0 || a.Wall <= 0 {
		t.Fatal("the harness measured nothing")
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
	s := scaleScenario(100_032, 16, 4, 4000)
	m, err := Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Finished != s.RequestCount() {
		t.Fatalf("finished %d of %d requests", m.Finished, s.RequestCount())
	}
	const heapBound = 320 << 20
	if m.PeakHeapBytes > heapBound {
		t.Fatalf("peak heap %d MB exceeds the %d MB streaming bound — is the workload being materialized?",
			m.PeakHeapBytes>>20, int64(heapBound)>>20)
	}
	t.Logf("scale smoke: %d requests, wall %v, peak heap %d MB", m.Finished, m.Wall, m.PeakHeapBytes>>20)
	t.Run("fleet+chaos", scaleSmokeFleetChaos)
}

// scaleSmokeFleetChaos streams ~20k requests through a 4-replica fleet
// with the store, rebalancing migration and one crash/restart on, so
// `make scale-smoke` runs every barrier-section operation under the
// race detector at 4 shards: every request reaches exactly one terminal
// event and the stream is never materialized.
func scaleSmokeFleetChaos(t *testing.T) {
	s := scaleScenario(64*320, 4, 4, 1000)
	s.Router, s.CapacityBytes, s.HostTierBytes, s.Preempt = cluster.LeastLoaded, 16<<20, 64<<20, engine.PreemptSwap
	s.Fleet = cluster.FleetPolicy{Store: true, Migrate: true, ImbalanceThreshold: 1.5}
	// The instants are spelled out: deriving them from the arrival
	// span would materialize the stream this test exists to keep lazy.
	span := time.Duration(float64(s.RequestCount()) / s.Rate * float64(time.Second))
	s.Faults, s.Recover = &Faults{Replica: 3, CrashAt: span * 2 / 5, RestartAt: span * 3 / 4}, true
	c := &terminalCounter{seen: make(map[int64]int, s.RequestCount())}
	s.EventSink = c.sink
	m, err := Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes != 1 || m.Restarts != 1 || m.LostRequests != 0 {
		t.Fatalf("crashes/restarts/lost = %d/%d/%d, want 1/1/0", m.Crashes, m.Restarts, m.LostRequests)
	}
	checkTerminalOnce(t, s, m.Result, c)
	// 37-38 MB measured, with and without the race detector.
	const heapBound = 64 << 20
	if m.PeakHeapBytes > heapBound {
		t.Fatalf("peak heap %d MB exceeds the %d MB streaming bound", m.PeakHeapBytes>>20, int64(heapBound)>>20)
	}
	t.Logf("fleet+chaos smoke: %d requests, %d migrations, %d peer hits, %d redispatched, peak heap %d MB",
		s.RequestCount(), m.Migrations, m.PeerHits, m.Redispatched, m.PeakHeapBytes>>20)
}

// chaosSmokeScenario is the chaos scorecard at smoke size: 3 Gemma-2
// replicas with a 1 GiB host tier, 110 churning requests at 150 req/s,
// the last replica crashing and restarting mid-burst while a fifth of
// the peer transfers fail.
func chaosSmokeScenario(t *testing.T) Scenario {
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Spec: spec, Replicas: 3, CapacityBytes: 1 << 28, HostTierBytes: 1 << 30,
		Preempt: engine.PreemptSwap, SLOTTFT: 750 * time.Millisecond,
		Fleet: cluster.FleetPolicy{Store: true, Migrate: true},
		Churn: true, Requests: 120, Groups: 11, PrefixLen: 512, SuffixLen: 128, Phases: 4,
		Rate: 150, Seed: 42,
		Faults: &Faults{Replica: 2, FetchFailRate: 0.2},
	}
}

// TestChaosSmoke is the CI chaos gate (make chaos-smoke runs it under
// the race detector): the seeded crash-restart schedule with
// peer-transfer faults, recovery off and on. The recovery path
// (CrashOut/CrashReset, directory invalidation, redispatch, bounded
// retry) must be deterministic — the same scenario twice gives the same
// Result — lose nothing when it is on, and account for every request
// either way.
func TestChaosSmoke(t *testing.T) {
	for _, recover := range []bool{false, true} {
		s := chaosSmokeScenario(t)
		s.Recover = recover
		res, c := runCounted(t, s)
		if res.Crashes != 1 || res.Restarts != 1 {
			t.Fatalf("recover=%v: crashes/restarts = %d/%d, want 1/1", recover, res.Crashes, res.Restarts)
		}
		checkTerminalOnce(t, s, res, c)
		if recover && (res.LostRequests != 0 || res.Redispatched == 0) {
			t.Fatalf("recovery on: lost %d, redispatched %d — want none lost, some redispatched",
				res.LostRequests, res.Redispatched)
		}
		if !recover && res.LostRequests == 0 {
			t.Fatal("recovery off lost nothing: the crash missed the burst and the smoke tests nothing")
		}
		again, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("recover=%v: the same scenario gave two results:\n%+v\n%+v", recover, res, again)
		}
	}
}

// TestFaultReplica: the plan crashes exactly the replica the scenario
// names — replica 0 included, which the old "<= 0 means the last"
// spelling made unselectable — and a replica outside the fleet is an
// error, not a silent remap.
func TestFaultReplica(t *testing.T) {
	s := chaosSmokeScenario(t)
	s.Faults = &Faults{Replica: 0}
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Events[0].Replica != 0 || plan.Events[1].Replica != 0 {
		t.Fatalf("plan crashes/restarts replicas %d/%d, want 0/0", plan.Events[0].Replica, plan.Events[1].Replica)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery is off, so the crashed replica's in-flight requests are
	// lost: the replica that is short of outcomes is the one that died.
	for i, pr := range res.PerReplica {
		short := pr.Requests - pr.Result.Finished - pr.Result.Failed - pr.Result.Shed
		want := 0
		if i == 0 {
			want = res.LostRequests
		}
		if res.Crashes != 1 || res.LostRequests == 0 || short != want {
			t.Fatalf("replica %d is %d outcomes short, want %d (crashes %d, lost %d)",
				i, short, want, res.Crashes, res.LostRequests)
		}
	}
	for _, rep := range []int{-1, 3} {
		s.Faults = &Faults{Replica: rep}
		if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "3-replica fleet") {
			t.Fatalf("replica %d of 3: err = %v, want an out-of-range error", rep, err)
		}
	}
}
