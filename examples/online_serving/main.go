// Online serving: wrap one engine replica in the event-driven Server,
// stream a request's tokens as they are generated, cancel a stream
// mid-generation with a context (its KV returns to the pool, committed
// pages stay reusable in the prefix cache), lean on backpressure and
// SLO-aware admission under a burst, and read the goodput/attainment
// scorecard at the end — the serving loop the batch experiments are a
// thin driver over.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"jenga"
)

func main() {
	spec := jenga.Models.Gemma2_2B()
	budget, err := jenga.KVBudget(spec, jenga.H100(), 0)
	if err != nil {
		log.Fatal(err)
	}
	// A deliberately small heap so the burst below actually contends.
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: budget / 8,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	const sloTTFT = 250 * time.Millisecond
	srv, err := jenga.NewServer(jenga.ServerConfig{
		Engine: jenga.EngineConfig{
			Spec: spec, Device: jenga.H100(), Manager: mgr,
			// Shed at arrival when KV demand cannot fit or the queue
			// already busts the TTFT target.
			Admission: jenga.AdmissionChain(
				jenga.KVAdmission{},
				jenga.SLOAdmission{TTFT: sloTTFT},
			),
		},
		MaxQueue: 256,
		SLOTTFT:  sloTTFT,
	})
	if err != nil {
		log.Fatal(err)
	}

	gen := jenga.NewWorkloadGen(42)
	reqs := gen.PrefixGroups(6, 32, 512, 96)
	gen.PoissonArrivals(reqs, 600)
	jenga.SetDeadlines(reqs, 2*time.Second)

	// Submit with the server paused: a submission racing a stepping
	// server would arrive at the live clock, not its own arrival time.
	srv.Pause()
	first, err := srv.Submit(context.Background(), reqs[0])
	if err != nil {
		log.Fatal(err)
	}
	// A user who gives up mid-generation: the stream is cancelled
	// deterministically after its 24th token (a context cancelling
	// works too — Submit's ctx wires straight to Stream.Cancel — but
	// lands at whatever simulated instant the wall clock reaches).
	// Every page the stream holds returns to the pool; committed pages
	// stay reusable in the prefix cache.
	abandonedReq := reqs[1]
	abandonedReq.OutputLen = 100_000
	abandoned, err := srv.Submit(context.Background(), abandonedReq)
	if err != nil {
		log.Fatal(err)
	}
	abandoned.CancelAfter(24)

	// The rest of the burst; MaxQueue bounces what does not fit.
	for _, r := range reqs[2:] {
		if _, err := srv.Submit(context.Background(), r); err == jenga.ErrQueueFull {
			fmt.Printf("backpressure: request %d bounced (queue full)\n", r.ID)
		} else if err != nil {
			log.Fatal(err)
		}
	}
	srv.Resume()

	// Watch the first request's stream in detail, token by token.
	fmt.Printf("streaming request %d (%d prompt tokens, %d output tokens):\n",
		first.ID(), reqs[0].PromptLen(), reqs[0].OutputLen)
	for ev := range first.Events() {
		switch ev.Type {
		case jenga.EventFirstToken:
			fmt.Printf("  first token at %v (TTFT)\n", ev.Clock.Round(time.Millisecond))
		case jenga.EventToken:
			if ev.Generated%16 == 0 {
				fmt.Printf("  %d tokens at %v\n", ev.Generated, ev.Clock.Round(time.Millisecond))
			}
		case jenga.EventPreempted:
			fmt.Printf("  preempted at %v (recompute)\n", ev.Clock.Round(time.Millisecond))
		case jenga.EventFinished:
			fmt.Printf("  finished at %v\n", ev.Clock.Round(time.Millisecond))
		}
	}
	if err := srv.Drain(); err != nil {
		log.Fatal(err)
	}

	if res, ok := abandoned.Result(); ok {
		fmt.Printf("\nabandoned stream %d: state %v after %d tokens, E2E %v\n",
			abandoned.ID(), res.State, res.Generated, res.E2E.Round(time.Millisecond))
	}
	u := srv.Snapshot().Usage
	fmt.Printf("post-drain KV: used %d, cached %d bytes (cancelled pages back in the pool)\n",
		u.Used, u.Cached)

	rep := srv.Report()
	fmt.Printf("\nscorecard over %d submissions:\n", rep.Submitted)
	fmt.Printf("  finished %d, shed %d, cancelled %d, failed %d\n",
		rep.Finished, rep.Shed, rep.Cancelled, rep.Failed)
	fmt.Printf("  %.1f req/s, goodput %.1f/s, SLO attainment %.1f%%, shed rate %.1f%%\n",
		rep.ReqPerSec, rep.Goodput, 100*rep.SLOAttainment, 100*rep.ShedRate)
	fmt.Printf("  TTFT p50 %v p99 %v, E2E p99 %v, hit rate %.1f%%\n",
		rep.P50TTFT.Round(time.Millisecond), rep.P99TTFT.Round(time.Millisecond),
		rep.P99E2E.Round(time.Millisecond), 100*rep.HitRate)
}
