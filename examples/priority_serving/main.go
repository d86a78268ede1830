// Priority serving: the pluggable scheduling layer in action. A fleet
// of low-priority batch requests fills the engine's memory with
// long-running decodes; a burst of high-priority interactive requests
// then lands on the full engine. Under the strict-priority scheduler
// the burst preempts its way in at admission time — low-priority
// decodes are recompute-preempted (their work stays in the prefix
// cache), the burst's TTFT stays interactive, and the preempted
// requests re-enter the queue and still finish: delayed, never
// starved. The same run under the default FCFS scheduler shows the
// burst queueing behind the backlog instead.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"jenga"
)

// serveBurst runs the low-priority backlog plus high-priority burst
// under one scheduler and returns the server's scorecard.
func serveBurst(scheduler jenga.Scheduler) (jenga.ServingReport, int) {
	spec := jenga.Models.Gemma2_2B()
	budget, err := jenga.KVBudget(spec, jenga.H100(), 0)
	if err != nil {
		log.Fatal(err)
	}
	// A small heap: the low-priority backlog must actually fill it.
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: budget / 160,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := jenga.NewServer(jenga.ServerConfig{
		Engine: jenga.EngineConfig{
			Spec: spec, Device: jenga.H100(), Manager: mgr,
			MaxBatchTokens: 1024, MaxPrefills: 2,
			Scheduler: scheduler,
		},
		SLOTTFT: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pause-submit-resume brackets the whole workload so the run is
	// deterministic regardless of wall-clock speed.
	srv.Pause()
	gen := jenga.NewWorkloadGen(7)
	low := gen.PrefixGroups(4, 8, 1024, 512) // long decodes: the memory hogs
	hi := gen.PrefixGroups(2, 4, 2048, 32)   // interactive burst, prompts too big for the leftover gap
	var lowStreams []*jenga.Stream
	for i := range low {
		low[i].Arrival = 0
		st, err := srv.Submit(context.Background(), low[i])
		if err != nil {
			log.Fatal(err)
		}
		lowStreams = append(lowStreams, st)
	}
	for i := range hi {
		hi[i].Priority = 5
		hi[i].Arrival = 150 * time.Millisecond // lands on a full engine
		if _, err := srv.Submit(context.Background(), hi[i]); err != nil {
			log.Fatal(err)
		}
	}
	srv.Resume()
	if err := srv.Drain(); err != nil {
		log.Fatal(err)
	}

	preempted := 0
	for _, st := range lowStreams {
		if res, ok := st.Result(); ok && res.Preemptions > 0 {
			preempted++
		}
	}
	return srv.Report(), preempted
}

func main() {
	for _, scheduler := range []jenga.Scheduler{jenga.NewFCFS(), jenga.NewPriority()} {
		rep, preempted := serveBurst(scheduler)
		fmt.Printf("scheduler %s: %d finished, %d failed, %d low-priority streams preempted\n",
			scheduler.Name(), rep.Finished, rep.Failed, preempted)
		for _, pr := range rep.PerPriority {
			fmt.Printf("  priority %d: %2d submitted, %2d finished, TTFT p50 %8v p99 %8v, SLO(100ms) %5.1f%%, preemptions %d\n",
				pr.Priority, pr.Submitted, pr.Finished,
				pr.P50TTFT.Round(time.Millisecond), pr.P99TTFT.Round(time.Millisecond),
				100*pr.SLOAttainment, pr.Preemptions)
		}
	}
	fmt.Println("\nthe strict-priority scheduler admits the burst by recompute-preempting")
	fmt.Println("low-priority decodes: high-priority TTFT drops to interactive range while")
	fmt.Println("every low-priority request still finishes — delayed, never starved.")
}
