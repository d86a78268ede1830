package cluster

import (
	"testing"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/engine"
)

// chaosCluster builds a store+migration fleet with the given chaos
// policy (ledger may be nil).
func chaosCluster(t *testing.T, replicas int, pol ChaosPolicy, ledger *eventLedger) *Cluster {
	t.Helper()
	cfg := Config{
		Spec: testSpec(), Replicas: replicas, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity,
		HostTierBytes: 64 << 20,
		PreemptMode:   engine.PreemptSwap,
		Fleet:         FleetPolicy{Store: true, Migrate: true},
		Chaos:         pol,
	}
	if ledger != nil {
		cfg.EventSink = ledger.sink
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// crashPlan schedules one mid-burst crash of the given replica, with
// an optional restart.
func crashPlan(replica int, restart bool) *chaos.Plan {
	p := chaos.NewPlan(1).Crash(replica, 200*time.Millisecond)
	if restart {
		p.Restart(replica, 400*time.Millisecond)
	}
	return p
}

// TestChaosCrashRecoveryInvariants is the crash-schedule extension of
// the drain exactly-once contract: a replica crashes mid-burst with
// recovery on, its in-flight requests re-dispatch to survivors, and
// every request in the stream still reaches exactly one terminal
// event. The dead holder leaves no dangling directory entries.
func TestChaosCrashRecoveryInvariants(t *testing.T) {
	ledger := newEventLedger()
	c := chaosCluster(t, 3, ChaosPolicy{Plan: crashPlan(1, false), Recover: true}, ledger)
	reqs := onlineWorkload(41, 0)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Restarts != 0 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/0", res.Crashes, res.Restarts)
	}
	if res.Redispatched == 0 {
		t.Fatal("crash at 200ms into a 300 req/s burst redispatched nothing")
	}
	if res.LostRequests != 0 {
		t.Fatalf("recovery lost %d requests with survivors available", res.LostRequests)
	}
	if res.Finished+res.Failed+res.Shed != len(reqs) {
		t.Fatalf("accounting broken: %d+%d+%d != %d",
			res.Finished, res.Failed, res.Shed, len(reqs))
	}
	ledger.checkTerminalOnce(t, reqs)
	// Crash recovery dropped the dead holder's directory entries and
	// nothing re-registered them: the replica never came back.
	if n := c.store.Directory().HolderLen(1); n != 0 {
		t.Fatalf("crashed holder still owns %d directory entries", n)
	}
	// The crashed replica's share of routed requests froze at the crash
	// instant while survivors kept absorbing the stream.
	if res.PerReplica[1].Requests >= res.PerReplica[0].Requests {
		t.Fatalf("dead replica kept taking work: %d vs survivor %d",
			res.PerReplica[1].Requests, res.PerReplica[0].Requests)
	}
}

// TestRedispatchIsNotMigration: with recovery on and migration off a
// crash's survivors re-enter through MigrateIn, and Result.Migrations
// still says what happened — nothing migrated.
func TestRedispatchIsNotMigration(t *testing.T) {
	c, err := New(Config{
		Spec: testSpec(), Replicas: 3, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity, HostTierBytes: 64 << 20,
		Fleet: FleetPolicy{Store: true},
		Chaos: ChaosPolicy{Plan: crashPlan(1, false), Recover: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ServeOnline(onlineWorkload(41, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Redispatched == 0 {
		t.Fatal("the crash redispatched nothing; the scenario needs MigrateIn entries")
	}
	if res.Migrations != 0 {
		t.Errorf("Migrations = %d with migration off (%d redispatched)", res.Migrations, res.Redispatched)
	}
}

// TestChaosNoRecoveryLosesRequests: the same crash without recovery
// loses the in-flight requests outright — they never reach a terminal
// event — and the rest of the stream still accounts exactly.
func TestChaosNoRecoveryLosesRequests(t *testing.T) {
	ledger := newEventLedger()
	c := chaosCluster(t, 3, ChaosPolicy{Plan: crashPlan(1, false), Recover: false}, ledger)
	reqs := onlineWorkload(41, 0)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostRequests == 0 {
		t.Fatal("crash without recovery lost nothing")
	}
	if res.Redispatched != 0 || res.DirInvalidations != 0 {
		t.Fatalf("recovery machinery ran while off: redispatched %d, invalidations %d",
			res.Redispatched, res.DirInvalidations)
	}
	if got := res.Finished + res.Failed + res.Shed + res.LostRequests; got != len(reqs) {
		t.Fatalf("accounting broken: %d terminals + %d lost != %d",
			got-res.LostRequests, res.LostRequests, len(reqs))
	}
	ledger.mu.Lock()
	terminated := len(ledger.terminals)
	for id, n := range ledger.terminals {
		if n != 1 {
			t.Fatalf("request %d saw %d terminal events", id, n)
		}
	}
	ledger.mu.Unlock()
	if terminated != len(reqs)-res.LostRequests {
		t.Fatalf("%d requests terminated, want %d (%d lost)",
			terminated, len(reqs)-res.LostRequests, res.LostRequests)
	}
}

// TestChaosRestartRejoins: a crashed replica that restarts re-enters
// the routing pool with a cold tier and takes new work again.
func TestChaosRestartRejoins(t *testing.T) {
	c := chaosCluster(t, 3, ChaosPolicy{Plan: crashPlan(1, true), Recover: true}, nil)
	reqs := onlineWorkload(41, 0)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", res.Crashes, res.Restarts)
	}
	if res.LostRequests != 0 {
		t.Fatalf("lost %d requests with recovery on", res.LostRequests)
	}
	if res.Finished+res.Failed+res.Shed != len(reqs) {
		t.Fatalf("accounting broken: %d+%d+%d != %d",
			res.Finished, res.Failed, res.Shed, len(reqs))
	}
	// The stream runs well past the 400ms restart; the rejoined replica
	// must have been routed more work than it held at the crash.
	rejoined := res.PerReplica[1].Requests
	if rejoined == 0 {
		t.Fatal("restarted replica never took work again")
	}
}

// TestChaosRecoveryBeatsNone is the headline robustness claim at test
// scale: same workload, same crash schedule — recovery on finishes
// every request; recovery off loses the crashed replica's in-flight
// work.
func TestChaosRecoveryBeatsNone(t *testing.T) {
	reqs := onlineWorkload(41, 0)
	run := func(recover bool) *Result {
		c := chaosCluster(t, 3, ChaosPolicy{Plan: crashPlan(1, false), Recover: recover}, nil)
		res, err := c.ServeOnline(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if with.Finished <= without.Finished {
		t.Fatalf("recovery finished %d, no-recovery %d — recovery did not pay",
			with.Finished, without.Finished)
	}
	if with.LostRequests >= without.LostRequests || without.LostRequests == 0 {
		t.Fatalf("lost: recovery %d vs none %d", with.LostRequests, without.LostRequests)
	}
}

// TestChaosDeterminism: the same seed and schedule reproduce the run
// bit-identically — crash recovery, transfer faults and all.
func TestChaosDeterminism(t *testing.T) {
	reqs := onlineWorkload(41, 0)
	run := func() *Result {
		plan := chaos.NewPlan(7).
			Crash(1, 200*time.Millisecond).
			Restart(1, 400*time.Millisecond).
			Degrade(0, 100*time.Millisecond, 300*time.Millisecond, 0.5, 0.5).
			Straggle(2, 150*time.Millisecond, 250*time.Millisecond, 1.5)
		plan.FetchFailRate = 0.3
		plan.MigrateFailRate = 0.3
		c := chaosCluster(t, 3, ChaosPolicy{Plan: plan, Recover: true}, nil)
		res, err := c.ServeOnline(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	type key struct {
		finished, failed, shed           int
		crashes, redisp, lost, rollbacks int
		retries, fails                   int64
		dur, p99                         time.Duration
		hit                              float64
		peerBytes                        int64
		restored, recomputed             int64
	}
	k := func(r *Result) key {
		return key{
			r.Finished, r.Failed, r.Shed,
			r.Crashes, r.Redispatched, r.LostRequests, r.MigrationRollbacks,
			r.FetchRetries, r.FetchFailures,
			r.Duration, r.P99TTFT,
			r.HitRate, r.PeerBytes,
			r.RestoredTokens, r.RecomputedTokens,
		}
	}
	if k(a) != k(b) {
		t.Fatalf("same seed diverged:\n  a: %+v\n  b: %+v", k(a), k(b))
	}
}

// TestChaosZeroPlanIsIdentical: attaching no plan must leave ServeOnline
// bit-identical to a chaos-free cluster — the zero-fault determinism
// contract.
func TestChaosZeroPlanIsIdentical(t *testing.T) {
	reqs := onlineWorkload(41, 0)
	run := func(pol ChaosPolicy) *Result {
		c := chaosCluster(t, 3, pol, nil)
		res, err := c.ServeOnline(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(ChaosPolicy{})
	recoverOn := run(ChaosPolicy{Recover: true}) // no plan: machinery never engages
	if plain.Duration != recoverOn.Duration || plain.Finished != recoverOn.Finished ||
		plain.P99TTFT != recoverOn.P99TTFT || plain.HitRate != recoverOn.HitRate ||
		plain.PeerBytes != recoverOn.PeerBytes {
		t.Fatalf("zero-fault runs diverged:\n  plain: %+v\n  chaos: %+v", plain, recoverOn)
	}
	if plain.Crashes != 0 || plain.LostRequests != 0 || plain.FetchRetries != 0 {
		t.Fatalf("chaos counters nonzero without a plan: %+v", plain)
	}
}

// TestChaosStragglerAvoidance: routing falls over from a replica inside
// a straggler window, so the sick replica's share of arrivals during
// the window shrinks versus the same stream without the plan.
func TestChaosStragglerAvoidance(t *testing.T) {
	reqs := onlineWorkload(43, 0)
	plan := chaos.NewPlan(3).Straggle(0, 0, time.Hour, 4)
	sickRes, err := chaosCluster(t, 3, ChaosPolicy{Plan: plan}, nil).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	wellRes, err := chaosCluster(t, 3, ChaosPolicy{}, nil).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if sickRes.PerReplica[0].Requests >= wellRes.PerReplica[0].Requests {
		t.Fatalf("straggling replica still took %d requests (healthy run: %d)",
			sickRes.PerReplica[0].Requests, wellRes.PerReplica[0].Requests)
	}
	if sickRes.Finished+sickRes.Failed+sickRes.Shed != len(reqs) {
		t.Fatalf("straggler run lost requests: %d+%d+%d != %d",
			sickRes.Finished, sickRes.Failed, sickRes.Shed, len(reqs))
	}
}
