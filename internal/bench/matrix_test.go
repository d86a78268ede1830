package bench

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/model"
	"jenga/internal/sched"
)

// matrixCell is one configuration of the differential matrix; every
// cell is served through all four horizons.
type matrixCell struct {
	name string
	s    Scenario
}

// matrixCells is the product router × scheduler × preempt/tier × fleet
// × chaos over one small memory-pressured churn workload, then the same
// workload served as a speculative target/draft pair over a corner set
// of that product (every scheduler; both tiers; nothing, or everything,
// of fleet and chaos) — burst commits under migration, crash
// redispatch and both preemption modes. Short runs keep every 7th cell:
// 7 is coprime to every dimension's size, so the subset still visits
// every value of every dimension.
func matrixCells(short bool) []matrixCell {
	base := Scenario{
		Spec: textSpec("bench-matrix"), Replicas: 4, CapacityBytes: 1 << 20,
		SLOTTFT: 200 * time.Millisecond,
		// A queue this shallow sheds about a third of the burst, so the
		// accounting below always has shed requests to account for.
		Admission: engine.KVAdmission{MaxQueue: 2},
		Churn:     true, Requests: 160, Groups: 10, PrefixLen: 384, SuffixLen: 48, Phases: 3,
		Rate: 2000, PrioClasses: 2, Deadline: time.Second, Seed: 9,
	}
	var cells []matrixCell
	for _, router := range []cluster.RouterPolicy{cluster.RoundRobin, cluster.LeastLoaded, cluster.PrefixAffinity} {
		for _, sc := range []sched.Scheduler{sched.NewFCFS(), sched.NewPriority(), sched.NewSJF(), sched.NewFairShare()} {
			for _, swap := range []bool{false, true} {
				for _, fleet := range []cluster.FleetPolicy{
					{},
					{Store: true},
					{Store: true, Migrate: true, ImbalanceThreshold: 1.3},
				} {
					for _, crash := range []bool{false, true} {
						s := base
						s.Router, s.Scheduler, s.Fleet = router, sc, fleet
						tier := "recompute"
						if swap {
							tier, s.Preempt, s.HostTierBytes = "swap", engine.PreemptSwap, 8<<20
						}
						if crash {
							s.Faults, s.Recover = &Faults{Replica: 1, FetchFailRate: 0.2}, true
						}
						if n := len(cells); short && n%7 != 0 {
							cells = append(cells, matrixCell{})
							continue
						}
						cells = append(cells, matrixCell{
							fmt.Sprintf("%v/%s/%s/store=%v,migrate=%v/crash=%v",
								router, sc.Name(), tier, fleet.Store, fleet.Migrate, crash), s})
					}
				}
			}
		}
	}
	pair := model.WithDraft(base.Spec, &model.Spec{
		Name: "bench-matrix-draft", Params: 100_000, WeightBytes: 2, HiddenSize: 16,
		Groups: []model.KVGroup{{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 64, Scope: model.ScopeText}},
	})
	for i, sc := range []sched.Scheduler{sched.NewFCFS(), sched.NewPriority(), sched.NewSJF(), sched.NewFairShare()} {
		for _, all := range []bool{false, true} {
			s := base
			s.Spec, s.Router, s.Scheduler = pair, cluster.PrefixAffinity, sc
			tier, swap := "recompute", i%2 == 1
			if swap {
				tier, s.Preempt, s.HostTierBytes = "swap", engine.PreemptSwap, 8<<20
			}
			if all {
				s.Fleet = cluster.FleetPolicy{Store: true, Migrate: true, ImbalanceThreshold: 1.3}
				s.Faults, s.Recover = &Faults{Replica: 1, FetchFailRate: 0.2}, true
			}
			// Short runs keep the diagonal: recompute alone, swap with
			// everything on — each scheduler and each value still once.
			if short && swap != all {
				continue
			}
			cells = append(cells, matrixCell{fmt.Sprintf("speculative/%s/%s/fleet+crash=%v", sc.Name(), tier, all), s})
		}
	}
	kept := cells[:0]
	for _, c := range cells {
		if c.name != "" {
			kept = append(kept, c)
		}
	}
	return kept
}

// exact strips what two runs of one workload may legitimately differ
// in when one is slice-backed and one streamed: the latency percentiles
// (exact nearest-rank vs histogram buckets) and the per-request and
// timeline slices a streamed run does not keep.
func exact(r *cluster.Result) cluster.Result {
	c := *r
	c.P50TTFT, c.P99TTFT, c.P50E2E, c.P99E2E, c.P99Restore, c.P99QueueWait = 0, 0, 0, 0, 0, 0
	c.PerReplica = append([]cluster.ReplicaResult(nil), r.PerReplica...)
	for i, pr := range c.PerReplica {
		er := *pr.Result
		er.PerRequest, er.DecodeBatchTimeline, er.MemTimeline = nil, nil, nil
		c.PerReplica[i].Result = &er
	}
	return c
}

// TestScenarioMatrix is the whole-matrix differential: for every cell,
// through Serve, ServeOnline and ServeStream at 1 and 4 shards,
//
//   - the same scenario run twice gives the identical Result;
//   - every submitted request reaches exactly one terminal outcome;
//   - ServeStream does not depend on the shard count;
//   - ServeStream is ServeOnline wherever a fleet or chaos config forces
//     the every-arrival horizon.
func TestScenarioMatrix(t *testing.T) {
	// fired sums, over the ServeOnline runs, the counters of every
	// mechanism the matrix claims to cover.
	var fired struct{ crashes, redispatched, peerHits, migrations, shed, swapOuts int64 }
	for _, cell := range matrixCells(testing.Short()) {
		t.Run(cell.name, func(t *testing.T) {
			run := func(h Horizon, shards int) *cluster.Result {
				s := cell.s
				s.Horizon, s.Shards = h, shards
				res, c := runCounted(t, s)
				checkTerminalOnce(t, s, res, c)
				again, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("horizon %d, %d shards: the same scenario gave two results:\n%+v\n%+v", h, shards, res, again)
				}
				return res
			}
			run(Offline, 0)
			online, stream1, stream4 := run(Online, 0), run(Stream, 1), run(Stream, 4)
			fired.crashes += int64(online.Crashes)
			fired.redispatched += int64(online.Redispatched)
			fired.peerHits += int64(online.PeerHits)
			fired.migrations += int64(online.Migrations)
			fired.shed += int64(online.Shed)
			fired.swapOuts += online.SwapOuts
			if !reflect.DeepEqual(stream1, stream4) {
				t.Fatalf("ServeStream moved with the shard count:\n1: %+v\n4: %+v", stream1, stream4)
			}
			everyArrival := cell.s.Faults != nil || cell.s.Fleet != (cluster.FleetPolicy{})
			if got, want := exact(stream1), exact(online); everyArrival && !reflect.DeepEqual(got, want) {
				t.Fatalf("ServeStream is not ServeOnline under the every-arrival horizon:\nstream %+v\nonline %+v", got, want)
			}
		})
	}
	if fired.crashes == 0 || fired.redispatched == 0 || fired.peerHits == 0 ||
		fired.migrations == 0 || fired.shed == 0 || fired.swapOuts == 0 {
		t.Fatalf("a mechanism never fired anywhere in the matrix: %+v", fired)
	}
}
