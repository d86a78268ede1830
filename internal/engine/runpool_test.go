package engine

import (
	"testing"

	"jenga/internal/workload"
)

// TestRunPoolBounded: runs are recycled, so what the engine allocates
// follows the requests in flight at once, not the requests served. A
// streamed workload — each request submitted at its arrival instant, as
// a cluster shard does — takes one slab per runSlab requests of its
// in-flight high-water mark (plus at most one, for the slab in use when
// the mark was set), a second pass over the same stream takes none, and
// a Reset in mid-run returns every abandoned run.
func TestRunPoolBounded(t *testing.T) {
	spec := miniFullSpec()
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 256<<20, false),
		MaxBatchTokens: 4096, MaxPrefills: 8, MaxRunning: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGen(7)
	reqs := g.ShareGPT(5000)
	for i := range reqs {
		if n := 16 << (i % 6); len(reqs[i].Prompt) > n { // 16 … 512 prompt tokens
			reqs[i].Prompt = reqs[i].Prompt[:n]
		}
		reqs[i].OutputLen = 2 + i%63
	}
	g.PoissonArrivals(reqs, 800)

	stream := func(n int) (highWater int) {
		for i := range reqs[:n] {
			if err := e.AdvanceTo(reqs[i].Arrival); err != nil {
				t.Fatal(err)
			}
			if err := e.Submit(&reqs[i]); err != nil {
				t.Fatal(err)
			}
			highWater = max(highWater, e.pending.len()+e.waiting.len()+len(e.running))
		}
		return highWater
	}
	allHome := func(when string) {
		t.Helper()
		p := &e.runs
		if p.taken != p.returned || len(p.spent) != 0 || len(p.free) != p.slabs*runSlab {
			t.Fatalf("%s: %d runs taken, %d returned, %d parked, %d free of %d slabs", when, p.taken, p.returned, len(p.spent), len(p.free), p.slabs)
		}
	}

	hw := stream(len(reqs))
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if res := e.ResultSnapshot(); res.Finished != len(reqs) {
		t.Fatalf("finished %d of %d", res.Finished, len(reqs))
	}
	slabs := e.runs.slabs
	if hw <= 2*runSlab || hw >= len(reqs)/4 {
		t.Fatalf("in-flight peaked at %d: want several slabs' worth and far fewer than the %d requests", hw, len(reqs))
	}
	if most := (hw+runSlab-1)/runSlab + 1; slabs > most {
		t.Fatalf("%d slabs for an in-flight peak of %d, want at most %d", slabs, hw, most)
	}
	t.Logf("in-flight peak %d, %d slabs", hw, slabs)
	allHome("after 5000 requests")

	e.Reset()
	stream(len(reqs))
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if e.runs.slabs != slabs {
		t.Fatalf("a second pass grew the pool from %d slabs to %d", slabs, e.runs.slabs)
	}
	allHome("after the second pass")

	e.Reset()
	stream(len(reqs) / 2)
	if !e.Live() {
		t.Fatal("nothing in flight at the reset point")
	}
	e.Reset()
	if e.runs.slabs != slabs {
		t.Fatalf("half a pass grew the pool from %d slabs to %d", slabs, e.runs.slabs)
	}
	allHome("after a Reset in mid-run")
}
