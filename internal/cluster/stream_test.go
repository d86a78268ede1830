package cluster

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/workload"
)

// streamWorkload builds a monotone-arrival online stream (a Source
// must yield non-decreasing arrivals, so no jitter here).
func streamWorkload(seed int64, deadline time.Duration) []workload.Request {
	gen := workload.NewGen(seed)
	reqs := gen.PrefixGroups(15, 12, 512, 48)
	gen.PoissonArrivals(reqs, 300)
	if deadline > 0 {
		workload.SetDeadlines(reqs, deadline)
	}
	return reqs
}

func streamCluster(t *testing.T, replicas int, policy RouterPolicy) *Cluster {
	t.Helper()
	c, err := New(Config{
		Spec: testSpec(), Replicas: replicas, Policy: policy,
		CapacityBytes: perReplicaCapacity,
		SLOTTFT:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	lim := relTol * want
	if lim < 0 {
		lim = -lim
	}
	if d > lim {
		t.Errorf("%s: stream %v vs serial %v (beyond %.0f%%)", name, got, want, relTol*100)
	}
}

// With a load-oblivious router the streamed path routes identically to
// the serial one, so every exact counter must match ServeOnline
// bit for bit; only histogram-read percentiles may differ, within the
// bucket resolution.
func TestServeStreamMatchesServeOnlineAffinity(t *testing.T) {
	reqs := streamWorkload(11, time.Second)
	serial, err := streamCluster(t, 4, PrefixAffinity).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := streamCluster(t, 4, PrefixAffinity).ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Finished != serial.Finished || stream.Failed != serial.Failed || stream.Shed != serial.Shed {
		t.Fatalf("terminal counts differ: stream %d/%d/%d serial %d/%d/%d",
			stream.Finished, stream.Failed, stream.Shed, serial.Finished, serial.Failed, serial.Shed)
	}
	if stream.Duration != serial.Duration {
		t.Fatalf("duration differs: %v vs %v", stream.Duration, serial.Duration)
	}
	if stream.ReqPerSec != serial.ReqPerSec || stream.TokensPerSec != serial.TokensPerSec ||
		stream.Goodput != serial.Goodput {
		t.Fatalf("rates differ: %+v vs %+v", stream, serial)
	}
	if stream.HitRate != serial.HitRate ||
		stream.CachedPromptTokens != serial.CachedPromptTokens ||
		stream.ComputedPromptTokens != serial.ComputedPromptTokens ||
		stream.RestoredTokens != serial.RestoredTokens {
		t.Fatalf("cache accounting differs: %+v vs %+v", stream, serial)
	}
	if stream.GroupJain != serial.GroupJain || stream.MaxGroupMeanTTFT != serial.MaxGroupMeanTTFT ||
		stream.StarvedGroups != serial.StarvedGroups {
		t.Fatalf("fairness differs: jain %v/%v maxTTFT %v/%v starved %d/%d",
			stream.GroupJain, serial.GroupJain, stream.MaxGroupMeanTTFT, serial.MaxGroupMeanTTFT,
			stream.StarvedGroups, serial.StarvedGroups)
	}
	if stream.Imbalance != serial.Imbalance || stream.MeanKVUtil != serial.MeanKVUtil ||
		stream.SLOAttainment != serial.SLOAttainment {
		t.Fatalf("scorecard differs: imbalance %v/%v kvutil %v/%v slo %v/%v",
			stream.Imbalance, serial.Imbalance, stream.MeanKVUtil, serial.MeanKVUtil,
			stream.SLOAttainment, serial.SLOAttainment)
	}
	for i := range serial.PerReplica {
		s, o := stream.PerReplica[i], serial.PerReplica[i]
		if s.Requests != o.Requests || s.RoutedTokens != o.RoutedTokens {
			t.Fatalf("replica %d routing differs: %d/%d tokens %d/%d",
				i, s.Requests, o.Requests, s.RoutedTokens, o.RoutedTokens)
		}
		if s.Result.Finished != o.Result.Finished || s.Result.Duration != o.Result.Duration ||
			s.Result.Steps != o.Result.Steps ||
			s.Result.CachedPromptTokens != o.Result.CachedPromptTokens ||
			s.Result.GeneratedTokens != o.Result.GeneratedTokens {
			t.Fatalf("replica %d engine result differs:\nstream %+v\nserial %+v", i, s.Result, o.Result)
		}
	}
	// Percentiles are histogram reads: within the bucket width of the
	// serial exact values (min/max ranks are exact).
	within(t, "p50 TTFT", float64(stream.P50TTFT), float64(serial.P50TTFT), 0.06)
	within(t, "p99 TTFT", float64(stream.P99TTFT), float64(serial.P99TTFT), 0.06)
	within(t, "p50 E2E", float64(stream.P50E2E), float64(serial.P50E2E), 0.06)
	within(t, "p99 E2E", float64(stream.P99E2E), float64(serial.P99E2E), 0.06)
	within(t, "p99 restore", float64(stream.P99Restore), float64(serial.P99Restore), 0.06)
}

// The conservative-horizon protocol makes the run a pure function of
// the workload and config: any shard count, same result — for
// load-aware routers too, since snapshots are published at exact
// epoch instants.
func TestServeStreamShardCountInvariant(t *testing.T) {
	reqs := streamWorkload(5, time.Second)
	run := func(shards int, policy RouterPolicy) *Result {
		res, err := streamCluster(t, 4, policy).ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, policy := range []RouterPolicy{LeastLoaded, PrefixAffinity} {
		base := run(1, policy)
		for _, shards := range []int{2, 4, 7} { // 7 clamps to the replica count
			got := run(shards, policy)
			if got.Finished != base.Finished || got.Duration != base.Duration ||
				got.HitRate != base.HitRate || got.P99TTFT != base.P99TTFT ||
				got.P99E2E != base.P99E2E || got.Imbalance != base.Imbalance ||
				got.Goodput != base.Goodput || got.SLOAttainment != base.SLOAttainment {
				t.Errorf("policy %v shards %d diverged:\n%+v\nvs shards=1\n%+v", policy, shards, got, base)
			}
			for i := range base.PerReplica {
				if got.PerReplica[i].Requests != base.PerReplica[i].Requests {
					t.Errorf("policy %v shards %d replica %d routed %d, shards=1 routed %d",
						policy, shards, i, got.PerReplica[i].Requests, base.PerReplica[i].Requests)
				}
			}
		}
	}
}

// Load-aware routing over epoch-stale snapshots must stay
// statistically close to the serial per-arrival path. The hit rate is
// compared as a mean over seeds: with 180 requests spread by load, one
// placement that differs re-homes a prefix group, so at a single seed
// the two paths' hit rates differ by more than 15% about as often as
// not (15 of 40 seeds before admission counted shared prefix pages
// once, 22 of 40 since; 6 and 11 with 100 µs snapshots), in either
// direction — the mean difference over those 40 seeds is +4% and +3%.
func TestServeStreamLeastLoadedEquivalence(t *testing.T) {
	run := func(seed int64) (serial, stream *Result) {
		reqs := streamWorkload(seed, time.Second)
		serial, err := streamCluster(t, 4, LeastLoaded).ServeOnline(reqs)
		if err != nil {
			t.Fatal(err)
		}
		stream, err = streamCluster(t, 4, LeastLoaded).ServeStream(workload.SliceSource(reqs),
			StreamConfig{Shards: 4, SnapshotEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if stream.Finished+stream.Failed+stream.Shed != len(reqs) {
			t.Fatalf("seed %d: terminal counts %d+%d+%d != %d", seed, stream.Finished, stream.Failed, stream.Shed, len(reqs))
		}
		return serial, stream
	}
	serial, stream := run(23)
	within(t, "finished", float64(stream.Finished), float64(serial.Finished), 0.02)
	within(t, "goodput", stream.Goodput, serial.Goodput, 0.05)
	within(t, "p99 TTFT", float64(stream.P99TTFT), float64(serial.P99TTFT), 0.25)
	within(t, "imbalance", stream.Imbalance, serial.Imbalance, 0.10)
	var serialHit, streamHit float64
	for seed := int64(1); seed <= 16; seed++ {
		serial, stream := run(seed)
		serialHit += serial.HitRate
		streamHit += stream.HitRate
	}
	within(t, "mean hit rate over 16 seeds", streamHit/16, serialHit/16, 0.15)
}

// A cluster is reusable across streamed and serial passes: the retire
// sink is detached afterwards, so a following ServeOnline still gets
// exact per-request aggregation.
func TestServeStreamThenServeOnline(t *testing.T) {
	c := streamCluster(t, 3, PrefixAffinity)
	reqs := streamWorkload(9, 0)
	first, err := c.ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Finished != second.Finished {
		t.Fatalf("streamed pass finished %d, serial re-run %d", first.Finished, second.Finished)
	}
	if len(second.PerReplica) > 0 {
		total := 0
		for _, pr := range second.PerReplica {
			total += len(pr.Result.PerRequest)
		}
		if total != second.Finished {
			t.Fatalf("serial pass after stream lost per-request records: %d != %d", total, second.Finished)
		}
	}
}

// fleetChaosConfig is the "everything on" fleet: store, migration with
// an imbalance threshold, a mid-stream scale-down, one crash with a
// restart, and transfer faults — every cross-replica operation a
// barrier section can run.
func fleetChaosConfig() Config {
	plan := chaos.NewPlan(7).
		Crash(1, 200*time.Millisecond).
		Restart(1, 400*time.Millisecond).
		Degrade(0, 100*time.Millisecond, 300*time.Millisecond, 0.5, 0.5)
	plan.FetchFailRate = 0.3
	plan.MigrateFailRate = 0.3
	return Config{
		Spec: testSpec(), Replicas: 4, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity,
		HostTierBytes: 64 << 20,
		PreemptMode:   engine.PreemptSwap,
		SLOTTFT:       500 * time.Millisecond,
		Fleet: FleetPolicy{
			Store: true, Migrate: true, ImbalanceThreshold: 1.3,
			DrainAfter: 500 * time.Millisecond,
		},
		Chaos: ChaosPolicy{Plan: plan, Recover: true},
	}
}

// scalars strips the per-request and timeline slices off an engine
// result so two results compare on every counter, rate and mean.
func scalars(r *engine.Result) engine.Result {
	c := *r
	c.PerRequest, c.DecodeBatchTimeline, c.MemTimeline = nil, nil, nil
	return c
}

// checkMigrationLaw: every MigrateOut either completes as a migration
// or rolls back, and MigrateIn's other callers — rollback re-entries
// and crash redispatches — are not migrations. (Summing MigratedIn, as
// Result.Migrations once did, counts all three.)
func checkMigrationLaw(t *testing.T, name string, res *Result) {
	t.Helper()
	out, in := 0, 0
	for _, pr := range res.PerReplica {
		out += pr.Result.MigratedOut
		in += pr.Result.MigratedIn
	}
	if res.Migrations != out-res.MigrationRollbacks {
		t.Errorf("%s: Migrations %d, want %d extractions - %d rollbacks", name, res.Migrations, out, res.MigrationRollbacks)
	}
	if in != res.Migrations+res.MigrationRollbacks+res.Redispatched {
		t.Errorf("%s: %d MigrateIn entries, want %d migrations + %d rollbacks + %d redispatches",
			name, in, res.Migrations, res.MigrationRollbacks, res.Redispatched)
	}
}

// A fleet or chaos config gives ServeStream the every-arrival horizon,
// so the streamed run is the ServeOnline run: every exact field of the
// Result and every per-replica engine counter match bit for bit at any
// shard count; only the histogram-read percentiles may differ, within
// the bucket resolution.
func TestServeStreamFleetChaosMatchesServeOnline(t *testing.T) {
	gen := workload.NewGen(5)
	reqs := gen.ChurnGroups(12, 20, 512, 48, 4)
	gen.PoissonArrivals(reqs, 300)
	workload.SetDeadlines(reqs, time.Second)
	// The default managers, kept: a drained fleet's managers remember no
	// request — whatever a fetch at dispatch, an admission probe or a
	// lookup showed them, on whichever replica, was released or crashed.
	var mgrs []*core.Jenga
	build := func() *Cluster {
		cfg := fleetChaosConfig()
		cfg.NewManager = func(int) (core.Manager, error) {
			m, err := core.New(core.Config{Spec: cfg.Spec, CapacityBytes: cfg.CapacityBytes,
				EnablePrefixCache: true, RequestAware: true, HostTierBytes: cfg.HostTierBytes})
			mgrs = append(mgrs, m)
			return m, err
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	forgotten := func(name string) {
		t.Helper()
		for i, m := range mgrs {
			if n := m.Remembered(); n != 0 {
				t.Errorf("%s: replica %d's manager still remembers %d requests", name, i%4, n)
			}
		}
		mgrs = nil
	}
	serial, err := build().ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	forgotten("ServeOnline")
	if serial.Crashes != 1 || serial.Restarts != 1 || serial.Redispatched == 0 ||
		serial.Migrations == 0 || serial.PeerHits == 0 || serial.MigrationRollbacks == 0 ||
		serial.FetchRetries == 0 || serial.PerReplica[3].Result.MigratedOut == 0 {
		t.Fatalf("reference run does not exercise every barrier-section operation: %+v", serial)
	}
	checkMigrationLaw(t, "ServeOnline", serial)
	for _, shards := range []int{1, 2, 4} {
		stream, err := build().ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		checkMigrationLaw(t, "ServeStream", stream)
		forgotten("ServeStream")
		// Copy the reference, overwrite what legitimately differs, and
		// compare everything else in one go.
		want := *serial
		want.P50TTFT, want.P99TTFT = stream.P50TTFT, stream.P99TTFT
		want.P50E2E, want.P99E2E, want.P99Restore = stream.P50E2E, stream.P99E2E, stream.P99Restore
		want.PerReplica = nil
		got := *stream
		got.PerReplica = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards %d: fleet result differs:\nstream %+v\nserial %+v", shards, got, want)
		}
		for i, o := range serial.PerReplica {
			s := stream.PerReplica[i]
			if s.Requests != o.Requests || s.RoutedTokens != o.RoutedTokens ||
				!reflect.DeepEqual(scalars(s.Result), scalars(o.Result)) {
				t.Fatalf("shards %d replica %d differs:\nstream %+v\nserial %+v",
					shards, i, scalars(s.Result), scalars(o.Result))
			}
		}
		within(t, "p50 TTFT", float64(stream.P50TTFT), float64(serial.P50TTFT), 0.06)
		within(t, "p99 TTFT", float64(stream.P99TTFT), float64(serial.P99TTFT), 0.06)
		within(t, "p50 E2E", float64(stream.P50E2E), float64(serial.P50E2E), 0.06)
		within(t, "p99 E2E", float64(stream.P99E2E), float64(serial.P99E2E), 0.06)
		within(t, "p99 restore", float64(stream.P99Restore), float64(serial.P99Restore), 0.06)
	}
}

// With a load-oblivious router placement never reads replica state, so
// the horizon policy cannot matter: Serve (no horizon) and ServeOnline
// (a horizon at every arrival) hand every replica the same request
// sequence and get the same per-replica results, per-request records
// included. This is the equivalence that lets one loop serve both.
func TestServeMatchesServeOnlineLoadOblivious(t *testing.T) {
	reqs := onlineWorkload(17, time.Second) // jittered: exercises the arrival sort
	for _, policy := range []RouterPolicy{RoundRobin, PrefixAffinity} {
		batch, err := streamCluster(t, 4, policy).Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		online, err := streamCluster(t, 4, policy).ServeOnline(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch, online) {
			t.Fatalf("policy %v: Serve and ServeOnline diverged:\nserve  %+v\nonline %+v", policy, batch, online)
		}
	}
}

// failingCrasher is a manager whose cold restart fails.
type failingCrasher struct{ core.Manager }

func (failingCrasher) CrashReset() error { return errors.New("no cold restart") }

// Every way the serve loop can fail returns the error promptly and
// leaves no goroutine behind: drive closes the mailboxes and joins the
// shards on every exit.
func TestDriveErrorPathsJoinShards(t *testing.T) {
	nonMonotone := streamWorkload(2, 0)[:40]
	nonMonotone[20].Arrival = nonMonotone[19].Arrival - time.Millisecond
	cases := []struct {
		name, want string
		run        func() error
	}{
		{"non-monotone arrivals", "non-decreasing", func() error {
			_, err := streamCluster(t, 3, LeastLoaded).ServeStream(workload.SliceSource(nonMonotone), StreamConfig{Shards: 3})
			return err
		}},
		{"engine exceeds MaxSteps mid-stream", "replica 1: engine: exceeded 20 steps", func() error {
			c := streamCluster(t, 3, RoundRobin)
			stuck, err := engine.New(engine.Config{Spec: testSpec(), Manager: c.managers[1], MaxSteps: 20})
			if err != nil {
				t.Fatal(err)
			}
			c.engines[1] = stuck
			_, err = c.ServeStream(workload.SliceSource(streamWorkload(2, 0)), StreamConfig{Shards: 3})
			return err
		}},
		{"crashed replica cannot restart cold", "replica 1: crash reset: no cold restart", func() error {
			cfg := fleetChaosConfig()
			cfg.NewManager = func(int) (core.Manager, error) {
				m, err := core.New(core.Config{
					Spec: cfg.Spec, CapacityBytes: cfg.CapacityBytes,
					EnablePrefixCache: true, RequestAware: true,
				})
				return failingCrasher{m}, err
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.ServeOnline(streamWorkload(2, 0))
			return err
		}},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() { done <- tc.run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: serve loop did not return", tc.name)
		}
		for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(time.Millisecond) // a joined goroutine may not have exited yet
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines outlive the run", tc.name, n-before)
		}
	}
}

// Out-of-order arrivals are a caller bug the router reports rather
// than silently misroutes.
func TestServeStreamRejectsNonMonotoneArrivals(t *testing.T) {
	reqs := streamWorkload(2, 0)
	reqs[1].Arrival = reqs[0].Arrival - time.Millisecond
	if _, err := streamCluster(t, 2, PrefixAffinity).ServeStream(workload.SliceSource(reqs[:3]), StreamConfig{}); err == nil {
		t.Fatal("decreasing arrivals must be rejected")
	}
}
