// Fan-out sampling: copy-on-write stream forking for parallel
// sampling and agentic branch exploration.
//
// Two faces of the same Fork API:
//
//  1. Declarative (Request.Fanout / ForkAfter): the workload says
//     "this request branches into 8 streams after N shared output
//     tokens" and the engine forks it automatically at exactly that
//     point. The prompt and the pre-divergence generation exist once;
//     branches take references, and the first divergent write into a
//     still-shared partial block triggers one copy-on-write page copy,
//     charged to the step's DMA time. We run the identical fan-out
//     naively — 8 independent requests per root — and compare peak KV.
//
//  2. Interactive (Stream.Fork): an online client streams a root
//     request, decides mid-generation that the trajectory is worth
//     exploring, and forks it into live branches — each a first-class
//     stream with its own events, cancellation and report row. A
//     forked branch needs no prefill, so its first token is one decode
//     step away.
//
// Run: go run ./examples/fanout_sampling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"jenga"
)

const (
	promptLen = 256
	// forkAfter is chosen mid-block (256+258 = 514 tokens, not a
	// multiple of the 16-token page) so the fork point splits a
	// partial block and the copy-on-write path is exercised; a
	// block-aligned fork legitimately copies nothing, because
	// completed blocks are immutable.
	forkAfter = 258
	outputLen = 322 // 64 divergent tail tokens per branch
	branch    = 8
)

// runBatch serves one fan-out request — forked or naively lowered to
// independent branches — and returns its peak KV bytes plus the
// manager's sharing counters.
func runBatch(naive bool) (peak int64, stats jenga.AllocStats) {
	spec := jenga.Models.Gemma2_2B()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 2 << 30,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := jenga.NewEngine(jenga.EngineConfig{
		Spec: spec, Device: jenga.H100(), Manager: mgr, SampleEvery: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := jenga.NewWorkloadGen(7)
	reqs := gen.FanOut(1, promptLen, forkAfter, outputLen, branch)
	jenga.AllAtOnce(reqs)
	if naive {
		reqs = jenga.NaiveFanOut(reqs)
	}
	res, err := eng.Run(reqs)
	if err != nil {
		log.Fatal(err)
	}
	if res.Finished != branch {
		log.Fatalf("finished %d branches, want %d", res.Finished, branch)
	}
	for _, s := range res.MemTimeline {
		if s.Usage.Used > peak {
			peak = s.Usage.Used
		}
	}
	return peak, mgr.Stats()
}

func main() {
	fmt.Println("fan-out sampling: one prompt, 8 parallel branches after a shared")
	fmt.Printf("%d-token generation — copy-on-write forking vs 8 independent requests\n", forkAfter)
	fmt.Println()

	// Face 1: the declarative fan-out, forked vs naive.
	forkPeak, st := runBatch(false)
	naivePeak, _ := runBatch(true)
	fmt.Printf("%-28s %12s %12s\n", "mode", "peak KV", "KV/branch")
	fmt.Printf("%-28s %12d %12d\n", "fork (copy-on-write)", forkPeak, forkPeak/branch)
	fmt.Printf("%-28s %12d %12d\n", "naive (independent)", naivePeak, naivePeak/branch)
	fmt.Printf("%-28s %11.1fx lower per branch\n", "",
		float64(naivePeak)/float64(forkPeak))
	fmt.Printf("sharing machinery: %d forks, %d CoW page copies (%d bytes D2D)\n",
		st.Forks, st.CowCopies, st.CowCopyBytes)
	fmt.Println()

	// Face 2: interactive forking on the online serving surface.
	spec := jenga.Models.Gemma2_2B()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 2 << 30,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := jenga.NewServer(jenga.ServerConfig{
		Engine: jenga.EngineConfig{Spec: spec, Device: jenga.H100(), Manager: mgr},
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := jenga.NewWorkloadGen(11)
	rootReq := gen.ShareGPT(1)[0]
	rootReq.Truncate(promptLen)
	rootReq.OutputLen = 100_000 // open-ended; every branch is bounded below
	rootReq.Arrival = 0

	// Submit paused and ask the server to freeze the simulation at the
	// step boundary after the 32nd token, so the fork point does not
	// depend on how fast this client reads its events.
	srv.Pause()
	root, err := srv.Submit(context.Background(), rootReq)
	if err != nil {
		log.Fatal(err)
	}
	root.PauseAfter(32)
	srv.Resume()
	// Stream until the trajectory looks promising, then branch.
	for ev := range root.Events() {
		if (ev.Type == jenga.EventFirstToken || ev.Type == jenga.EventToken) &&
			ev.Generated >= 32 {
			break
		}
	}
	kids, err := root.Fork(3)
	if err != nil {
		log.Fatal(err)
	}
	u := srv.Snapshot().Usage
	fmt.Printf("forked stream %d into %d branches mid-decode\n", root.ID(), len(kids))
	fmt.Printf("  shared KV at the fork: %d bytes referenced %dx (%d bytes saved)\n",
		u.Used, len(kids)+1, u.SharedBytes)
	// Bound every branch: each samples to 160 tokens, then stops.
	root.CancelAfter(160)
	for _, k := range kids {
		k.CancelAfter(160)
	}
	srv.Resume()

	for _, k := range kids {
		res, err := k.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  branch %d: %d tokens, first token %v after the fork (no prefill)\n",
			k.ID(), res.Generated, res.TTFT.Round(time.Millisecond))
	}
	if err := srv.Drain(); err != nil {
		log.Fatal(err)
	}
	rep := srv.Report()
	fmt.Printf("report: %d streams submitted, %d sampled to their bound\n",
		rep.Submitted, rep.Cancelled)
	if u := srv.Snapshot().Usage; u.Used == 0 && u.SharedBytes == 0 {
		fmt.Println("post-drain: all branch KV released, no page leaked")
	}
}
