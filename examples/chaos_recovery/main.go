// Chaos and recovery: crash one of four replicas mid-burst.
//
// The same seeded churn stream runs three times:
//
//  1. Baseline — no faults. The reference scorecard.
//  2. Crash, no recovery. At 40% through the burst one replica dies:
//     its in-flight KV and queue are gone and its host-tier pages die
//     with the process. The fleet routes around the corpse, but the
//     lost requests never finish and the fleet directory keeps
//     pointing at content that no longer exists.
//  3. Crash, recovery on. The same plan — bit-identical faults — but
//     the recovery machinery reacts: the directory drops every entry
//     naming the dead holder, its in-flight requests re-dispatch to
//     the coolest survivors (recomputing from their prompts), and peer
//     transfers that fail retry within a bounded budget before falling
//     back to local recompute.
//
// The crash is part of the simulation's deterministic schedule, not
// randomness at run time: a chaos plan is a pure function of its seed,
// so a failure scenario reproduces exactly — same crash step, same
// lost requests, same recovery decisions.
//
// Run: go run ./examples/chaos_recovery
package main

import (
	"fmt"
	"log"
	"time"

	"jenga"
)

const (
	replicas = 4
	rate     = 70 // req/s, just above the knee so requests are in flight
	deadline = 6 * time.Second
)

// churn builds the seeded replica-churn stream: 15 prefix groups of
// 1024 tokens whose popularity rotates through 4 phases.
func churn() []jenga.Request {
	gen := jenga.NewWorkloadGen(42)
	reqs := gen.ChurnGroups(15, 32, 1024, 128, 4)
	gen.PoissonArrivals(reqs, rate)
	jenga.SetDeadlines(reqs, deadline)
	return reqs
}

// plan schedules the crash: replica 3 dies at 2.8s (mid-burst for this
// stream) and peer transfers fail 20% of the time.
func plan() *jenga.ChaosPlan {
	p := jenga.NewChaosPlan(7).Crash(3, 2800*time.Millisecond)
	p.FetchFailRate = 0.2
	return p
}

func run(pol jenga.ChaosPolicy) *jenga.ClusterResult {
	c, err := jenga.NewCluster(jenga.ClusterConfig{
		Spec:          jenga.Models.Gemma2_2B(),
		Device:        jenga.H100(),
		Replicas:      replicas,
		CapacityBytes: 256 << 20, // starved: the working set overflows to the tiers
		HostTierBytes: 2 << 30,
		PreemptMode:   jenga.PreemptSwap,
		SLOTTFT:       500 * time.Millisecond,
		Fleet:         jenga.FleetPolicy{Store: true, Migrate: true},
		Chaos:         pol,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.ServeOnline(churn())
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	reqs := len(churn())
	fmt.Printf("chaos recovery: %d × Gemma-2-2B, %d requests at %d req/s; replica 3 crashes at 2.8s\n\n",
		replicas, reqs, rate)
	fmt.Printf("%-18s %9s %7s %6s %7s %7s %7s %10s\n",
		"mode", "goodput", "done", "lost", "redisp", "hit", "peer", "p99 TTFT")
	for _, c := range []struct {
		name string
		pol  jenga.ChaosPolicy
	}{
		{"no-faults", jenga.ChaosPolicy{}},
		{"crash", jenga.ChaosPolicy{Plan: plan()}},
		{"crash+recovery", jenga.ChaosPolicy{Plan: plan(), Recover: true}},
	} {
		res := run(c.pol)
		fmt.Printf("%-18s %9.1f %7d %6d %7d %6.1f%% %6.1f%% %10s\n",
			c.name, res.Goodput, res.Finished, res.LostRequests, res.Redispatched,
			100*res.HitRate, 100*res.PeerHitRate, res.P99TTFT.Round(time.Millisecond))
		if c.pol.Plan != nil {
			fmt.Printf("%-18s crashes %d, directory entries invalidated %d, transfer retries %d, transfer failures %d\n",
				"", res.Crashes, res.DirInvalidations, res.FetchRetries, res.FetchFailures)
		}
	}

	fmt.Println()
	fmt.Println("The crash costs the fleet its in-flight requests and poisons the")
	fmt.Println("directory; recovery invalidates the dead holder, re-dispatches the")
	fmt.Println("lost work to survivors, and bounds every transfer retry — same")
	fmt.Println("fault schedule, no request left behind.")
}
