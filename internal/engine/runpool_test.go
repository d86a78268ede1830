package engine

import (
	"cmp"
	"slices"
	"testing"

	"jenga/internal/sched"
	"jenga/internal/workload"
)

// TestRunPoolBounded: runs are recycled, so what the engine allocates
// follows the requests in flight at once, not the requests served. A
// streamed workload — each request submitted at its arrival instant, as
// a cluster shard does — takes one slab per runSlab requests of its
// in-flight high-water mark (plus at most one, for the slab in use when
// the mark was set), a second pass over the same stream takes none, and
// a Reset in mid-run returns every abandoned run. Run, handed the whole
// stream at once, is bound the same way: its requests take their runs
// as they arrive.
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
		reqs[i].Truncate(16 << (i % 6)) // 16 … 512 prompt tokens
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
			highWater = max(highWater, e.pending.len()+e.waiting.len()+e.running.len())
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

	// Run's leg, on an engine of its own: the in-flight mark is read at
	// every step, after its arrivals took their runs.
	var r *Engine
	runHW := 0
	probe := func() { runHW = max(runHW, r.pending.len()+r.waiting.len()+r.running.len()) }
	r, err = New(Config{
		Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 256<<20, false),
		MaxBatchTokens: 4096, MaxPrefills: 8, MaxRunning: 64, Scheduler: stepProbe{sched.NewFCFS(), probe},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != len(reqs) || runHW <= 2*runSlab || runHW >= len(reqs)/4 {
		t.Fatalf("Run finished %d of %d with an in-flight peak of %d", res.Finished, len(reqs), runHW)
	}
	if most := (runHW+runSlab-1)/runSlab + 1; r.runs.slabs > most {
		t.Fatalf("Run carved %d slabs for an in-flight peak of %d, want at most %d", r.runs.slabs, runHW, most)
	}
	t.Logf("Run: in-flight peak %d, %d slabs", runHW, r.runs.slabs)
}

// TestRunBurstOneSlab: a batch that arrives all at one instant takes
// its runs from one slab carved for the step's arrivals, not from one
// slab per runSlab of them — deep_queue_batch's 1,600 requests at t=0.
func TestRunBurstOneSlab(t *testing.T) {
	spec := miniFullSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 64<<20, false), MaxBatchTokens: 2048})
	if err != nil {
		t.Fatal(err)
	}
	reqs := textReqs(3, 1600, 64, 4)
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != len(reqs) || e.runs.slabs != 1 || len(e.runs.free) != len(reqs) {
		t.Fatalf("finished %d of %d: %d slabs carved, %d runs free, want one slab of %d", res.Finished, len(reqs), e.runs.slabs, len(e.runs.free), len(reqs))
	}
}

// TestRunResultOwnsItsRecords: Run hands back the engine's own records,
// not a copy, and the engine never writes them again — neither a second
// Run, which starts a new array, nor requests submitted and drained after
// Run without a reset, which append past what the Result can see.
func TestRunResultOwnsItsRecords(t *testing.T) {
	spec := miniWindowSpec()
	reqs := goldenWorkload()
	shed := shedSet{} // eight fewer records than requests: the array has room past them
	for _, r := range reqs[:8] {
		shed[r.ID] = true
	}
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 4<<20, true), MaxBatchTokens: 512, MaxPrefills: 2, Admission: shed})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(first.PerRequest)
	if len(kept) != len(reqs)-8 || cap(first.PerRequest) != len(kept) {
		t.Fatalf("%d records of capacity %d, want %d clipped", len(kept), cap(first.PerRequest), len(reqs)-8)
	}
	more := textReqs(11, 6, 64, 4)
	for i := range more {
		more[i].ID += 1 << 20
		if err := e.Submit(&more[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.ResultSnapshot().PerRequest); n != len(kept)+len(more) {
		t.Fatalf("the engine holds %d records after 6 more, want %d", n, len(kept)+len(more))
	}
	if !slices.Equal(first.PerRequest, kept) {
		t.Fatal("a Submit and Drain after Run rewrote the first Result's records")
	}
	second, err := e.Run(goldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.PerRequest, kept) || len(second.PerRequest) != len(kept) || &second.PerRequest[0] == &first.PerRequest[0] {
		t.Fatal("a second Run rewrote the first Result's records")
	}
	empty, err := e.Run(nil)
	if err != nil || empty.PerRequest == nil || len(empty.PerRequest) != 0 {
		t.Fatalf("an empty Run returned records %#v, error %v; want an empty, non-nil slice", empty.PerRequest, err)
	}
}

// TestRunErrorSpillsBatch: a Run stopped by an error leaves what Submit
// of every request would have — its requests not yet arrived are runs
// in the arrival queue, in arrival order — and reads the caller's slice
// no more, so a Drain after it serves the requests as they were.
func TestRunErrorSpillsBatch(t *testing.T) {
	spec := miniWindowSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 4<<20, true), MaxBatchTokens: 512, MaxPrefills: 2, MaxSteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	reqs := goldenWorkload()
	if _, err := e.Run(reqs); err == nil {
		t.Fatal("a Run of 72 requests finished in 20 steps")
	}
	pending := e.pending.items()
	sorted := slices.IsSortedFunc(pending, func(a, b *run) int { return cmp.Compare(a.req.Arrival, b.req.Arrival) })
	if e.batch.len() != 0 || len(pending) == 0 || !sorted {
		t.Fatalf("after the error: %d requests left in the batch, %d pending runs (sorted: %v)", e.batch.len(), len(pending), sorted)
	}
	for i := range reqs {
		reqs[i] = workload.Request{ID: -1}
	}
	e.cfg.MaxSteps = 1 << 20
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if res := e.ResultSnapshot(); res.Finished != 72 {
		t.Fatalf("finished %d of 72 after the Drain", res.Finished)
	}
}
